import json
import os
import subprocess
import sys

import pytest

import posetcat
from posetcat import checks, cube
from posetcat.errors import InvariantViolation
from posetcat.poset import MonotoneMap, interval_power

# Breaks karoubi.verify_sort_split, then runs a small verify-all and prints
# which checks failed.
FAULTY_SORT_SPLIT = """
import json, sys
from posetcat import checks, karoubi
karoubi.verify_sort_split = lambda m: (False, None)
report = checks.verify_all(max_poset=1, max_dim=0, max_simplex=1)
failed = {c.name: c.error for c in report.checks if not c.passed}
print(json.dumps({"optimize": sys.flags.optimize, "failed": failed}))
"""


def test_injected_fault_fails_its_check_under_python_O():
    src = os.path.dirname(os.path.dirname(posetcat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAULTY_SORT_SPLIT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert list(out["failed"]) == ["sort-splits"]
    assert "sort split" in out["failed"]["sort-splits"]


def test_sort_splits_reads_an_independent_sort(monkeypatch):
    # A descending sort still splits through a chain, but not onto
    # simplex_retract, so the check must fail once cube.sort_endomorphism
    # stops agreeing with it.
    def descending(m):
        P = interval_power(m)
        return MonotoneMap(P, P, tuple((1 << x.bit_count()) - 1 for x in range(P.size)))

    checks.check_sort_splits()
    monkeypatch.setattr(cube, "sort_endomorphism", descending)
    with pytest.raises(InvariantViolation, match="sort split"):
        checks.check_sort_splits()


def test_sort_splits_compares_the_retraction(monkeypatch):
    # (0, 0, 2, 3) fixes sort's vertices 0, 2 and 3 of [1]^2, so it splits
    # through the same chain, but it sends vertex 1 down to 0 where sort
    # sends it up to 2
    real = cube.sort_endomorphism

    def lowered(m):
        P = interval_power(m)
        return MonotoneMap(P, P, (0, 0, 2, 3)) if m == 2 else real(m)

    monkeypatch.setattr(cube, "sort_endomorphism", lowered)
    with pytest.raises(InvariantViolation, match="sort split"):
        checks.check_sort_splits()
