import json
import os
import subprocess
import sys

import posetcat

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
