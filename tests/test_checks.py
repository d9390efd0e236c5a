import json
import os
import subprocess
import sys

import pytest

import posetcat
from posetcat import catalog, checks, cube
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

# Drops the last class of the 5-element posets, then runs the default
# verify-all and prints which checks failed.
DROPPED_POSET_CLASS = """
import json, sys
from posetcat import catalog, checks
real = catalog.enumerate_posets
catalog.enumerate_posets = lambda n: real(n)[:-1] if n == 5 else real(n)
report = checks.verify_all()
failed = {c.name: c.error for c in report.checks if not c.passed}
print(json.dumps({"optimize": sys.flags.optimize, "failed": failed}))
"""

# Each of these breaks one oracle or one extension that a check computes once
# per object, then runs a small verify-all; append SMALL_VERIFY_ALL.
SMALL_VERIFY_ALL = """
report = checks.verify_all(max_poset=3, max_dim=0, max_simplex=1)
failed = {c.name: c.error for c in report.checks if not c.passed}
print(json.dumps({"optimize": sys.flags.optimize, "failed": failed}))
"""

# Transports one infimum wrongly, but only along a retract whose inner poset
# an earlier retract already had: every retract must still be compared.
WRONG_LIMIT_ON_A_SEEN_INNER = """
import json, sys
from posetcat import checks
real = checks.limit_via_retract
first = {}
def limit(ret, targets):
    got = real(ret, targets)
    return got if first.setdefault(ret.inner, ret) is ret else got + 1
checks.limit_via_retract = limit
""" + SMALL_VERIFY_ALL

# Denies that [1] is complete, which [2] retracts onto.
ONE_INNER_NOT_COMPLETE = """
import json, sys
from posetcat import checks
from posetcat.poset import chain
real = checks.is_complete
checks.is_complete = lambda P: P != chain(1) and real(P)
""" + SMALL_VERIFY_ALL

# Extends each rho from the section by xor where the join is an or.
XOR_NAT_HOM_EXTENSION = """
import inspect, json, sys
from posetcat import checks, presheaf
source = inspect.getsource(presheaf.nat_hom_via_retract)
mutant = source.replace("acc |= ", "acc ^= ")
if mutant == source:
    raise SystemExit("nat_hom_via_retract has no join extension to break")
exec(mutant, vars(presheaf))
""" + SMALL_VERIFY_ALL

# Applies seven mutants in turn, each undone before the next, runs the checks
# each one affects at small bounds, and prints how every check ended.
AUDIT_GUARD_MUTANTS = """
import inspect, json, sys, textwrap
from posetcat import checks, cube, presheaf, poset
from posetcat.poset import identity_map, interval_power

def outcome(check, *args):
    try:
        check(*args)
        return "pass"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

def run_checks():
    return {
        "poset-laws": outcome(checks.check_poset_laws, 3),
        "retract-transfer": outcome(checks.check_retract_transfer, 3),
        "triangulation-counts": outcome(checks.check_triangulation, 1),
        "horn-pushouts": outcome(checks.check_horn_pushouts, 2),
        "mono-preservation": outcome(checks.check_mono_preservation, 2, 2),
        "nat-hom": outcome(checks.check_nat_hom, 2),
        "sort-splits": outcome(checks.check_sort_splits, 5),
    }

def source_mutant(function, old, new):
    source = textwrap.dedent(inspect.getsource(function))
    if old not in source:
        raise SystemExit(f"{function.__name__} has no {old!r} to mutate")
    namespace = dict(function.__globals__)
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]

mutants = {
    "coproduct pushout": (presheaf, "_classes", lambda size, pairs: (size, list(range(size)))),
    "lossy direct stream": (presheaf, "nat_hom_via_retract", source_mutant(
        presheaf.nat_hom_via_retract, "{f.image for f in catalog.enumerate_monotone_maps(L, L2)}",
        "{f.image for f in list(catalog.enumerate_monotone_maps(L, L2))[:-1]}")),
    "identity sort": (cube, "sort_endomorphism", lambda m: identity_map(interval_power(m))),
    "len(I) < n": (checks, "_horn_index_sets", source_mutant(
        checks._horn_index_sets, "len(I) <= n", "len(I) < n")),
    "meet over the union": (checks, "meet", source_mutant(
        poset.meet, "P.down[a] & P.down[b]", "P.down[a] | P.down[b]")),
    "no terminal": (checks, "terminal", lambda P: None),
    "validate skips its rules": (presheaf.Presheaf, "validate", source_mutant(
        presheaf.Presheaf.validate, "elif tables[c] != tab:", "elif False:")),
}
failed = {"none": run_checks()}
for label, (owner, name, mutant) in mutants.items():
    real = getattr(owner, name)
    setattr(owner, name, mutant)
    try:
        failed[label] = {k: v for k, v in run_checks().items() if v != "pass"}
    finally:
        setattr(owner, name, real)
print(json.dumps({"optimize": sys.flags.optimize, "failed": failed}))
"""


def run_under_python_O(script):
    src = os.path.dirname(os.path.dirname(posetcat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    return out["failed"]


def test_injected_fault_fails_its_check_under_python_O():
    failed = run_under_python_O(FAULTY_SORT_SPLIT)
    assert list(failed) == ["sort-splits"]
    assert "sort split" in failed["sort-splits"]


def test_dropped_poset_class_fails_poset_laws_under_python_O():
    failed = run_under_python_O(DROPPED_POSET_CLASS)
    assert "poset-laws" in failed
    assert "poset count" in failed["poset-laws"]


def test_wrong_limit_on_a_seen_inner_fails_retract_transfer_under_python_O():
    failed = run_under_python_O(WRONG_LIMIT_ON_A_SEEN_INNER)
    assert list(failed) == ["retract-transfer"]
    assert failed["retract-transfer"].startswith("('infimum', ")


def test_one_inner_not_complete_fails_retract_transfer_under_python_O():
    failed = run_under_python_O(ONE_INNER_NOT_COMPLETE)
    assert list(failed) == ["retract-transfer"]
    assert failed["retract-transfer"].startswith("('completeness', ")


def test_audit_guards_fail_their_checks_under_python_O():
    failed = run_under_python_O(AUDIT_GUARD_MUTANTS)
    assert failed == {
        "none": dict.fromkeys(["poset-laws", "retract-transfer", "triangulation-counts",
                               "horn-pushouts", "mono-preservation", "nat-hom", "sort-splits"],
                              "pass"),
        "coproduct pushout": {  # left_kan's quotient goes through _classes too
            "horn-pushouts": "InvariantViolation: pushout differs from the horn at level 0",
            "mono-preservation": "InvariantViolation: ('representable components', 1, "
                                 "Poset(size=2, covers=[(0, 1)]))",
        },
        "lossy direct stream": {
            "nat-hom": "InvariantViolation: transported hom-set differs from direct enumeration"
        },
        "identity sort": {"sort-splits": "InvariantViolation: ('sort split', 2)"},
        "len(I) < n": {
            "horn-pushouts": "InvariantViolation: ('squares', 3, 9)",
            "mono-preservation": "InvariantViolation: ('horn instances', 6, 16)",
        },
        "meet over the union": {
            "poset-laws": "InvariantViolation: ('meet', Poset(size=2, covers=[(0, 1)]), 0, 1)"
        },
        "no terminal": {
            "poset-laws": "InvariantViolation: ('terminal', Poset(size=1, covers=[]))"
        },
        "validate skips its rules": {
            "triangulation-counts":
                "InvariantViolation: ('planted Delta[1] corruption', 'accepted')"
        },
    }


def test_xor_extension_fails_nat_hom_under_python_O():
    failed = run_under_python_O(XOR_NAT_HOM_EXTENSION)
    assert list(failed) == ["nat-hom"]
    assert failed["nat-hom"].startswith("not monotone on ")


def test_deep_cube_audit_adds_dimension_3():
    counts = checks.check_cube_idempotents(2, deep=True)
    assert list(counts)[-2:] == ["dim3_endos", "dim3_idempotents"]
    assert counts["dim3_endos"] == 20 ** 3 and counts["dim3_idempotents"] == 1541


def drop_last_class(monkeypatch, name, size):
    real = getattr(catalog, name)
    monkeypatch.setattr(catalog, name, lambda n: real(n)[:-1] if n == size else real(n))


def test_poset_laws_counts_the_posets_of_each_size(monkeypatch):
    assert checks.check_poset_laws(5)["posets"] == 88
    drop_last_class(monkeypatch, "enumerate_posets", 5)
    with pytest.raises(InvariantViolation, match="poset count"):
        checks.check_poset_laws(5)


def test_lattice_certificates_count_the_lattices_of_each_size(monkeypatch):
    assert checks.check_lattice_certificates(6)["size6"] == 15
    drop_last_class(monkeypatch, "enumerate_lattices", 6)
    with pytest.raises(InvariantViolation, match="lattice count"):
        checks.check_lattice_certificates(6)


def test_lattice_samples_are_counted(monkeypatch):
    # kan-oracle, mono-preservation and nat-hom draw their lattices here
    assert len(checks._lattices(5)) == 10
    drop_last_class(monkeypatch, "enumerate_lattices", 4)
    with pytest.raises(InvariantViolation, match="lattice sample"):
        checks._lattices(5)
    with pytest.raises(InvariantViolation, match="lattice sample"):
        checks.check_nat_hom(4)


def test_triangulation_reads_the_chain_count(monkeypatch):
    # off by one only at the largest cube and level the check reaches
    real = checks._cube_chain_counts

    def broken(n, top):
        counts = real(n, top)
        if n == 4 and top == 4:
            counts[4] += 1
        return counts

    checks.check_triangulation(4)
    monkeypatch.setattr(checks, "_cube_chain_counts", broken)
    with pytest.raises(InvariantViolation, match="chain count"):
        checks.check_triangulation(4)


def test_sort_splits_reads_an_independent_sort(monkeypatch):
    # A descending sort still splits through a chain, but not onto
    # simplex_retract, so the check must fail once cube.sort_endomorphism
    # stops agreeing with it.
    def descending(m):
        P = interval_power(m)
        return MonotoneMap(P, P, tuple((1 << x.bit_count()) - 1 for x in range(P.size)))

    checks.check_sort_splits(5)
    monkeypatch.setattr(cube, "sort_endomorphism", descending)
    with pytest.raises(InvariantViolation, match="sort split"):
        checks.check_sort_splits(5)


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
        checks.check_sort_splits(5)
