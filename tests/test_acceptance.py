"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every bound and tolerance is pinned here.
"""

import json
import os
import subprocess
import sys
import time
from itertools import product

import posetcat
from posetcat import catalog, checks, karoubi, presheaf
from posetcat.poset import chain, interval_power


def report(num, message):
    print(f"ACCEPTANCE {num:02d}: PASS - {message}")


def test_criterion_01_idempotent_splitting_direction():
    # exhaustive for n in {0,1,2}; n <= 2 under 1 second
    start = time.monotonic()
    results = {n: karoubi.audit_cube_idempotents(n) for n in (0, 1, 2)}
    small_elapsed = time.monotonic() - start
    assert small_elapsed < 1.0, f"n<=2 audits took {small_elapsed:.2f}s"
    assert results[0].endos == 1 and results[0].idempotents == 1
    assert results[1].endos == 3 and results[1].idempotents == 3
    assert results[2].endos == 36
    for n, rep in results.items():
        assert rep.violations == [], (n, rep.violations)
    # n = 3 exhaustive (deep mode): full endomorphism space, under 10 minutes
    start = time.monotonic()
    deep = karoubi.audit_cube_idempotents(3)
    deep_elapsed = time.monotonic() - start
    assert deep_elapsed < 600.0
    assert deep.endos == 20 ** 3 == 8000
    assert deep.violations == []
    report(
        1,
        f"all idempotents split through complete posets; n<=2 in {small_elapsed:.2f}s, "
        f"n=3 deep ({deep.idempotents} idempotents of 8000 endos) in {deep_elapsed:.2f}s",
    )


def test_criterion_02_retract_direction_lattices_to_six():
    start = time.monotonic()
    counts = checks.check_lattice_certificates(6)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    assert counts["total"] == 25
    assert [counts[f"size{n}"] for n in range(1, 7)] == [1, 1, 1, 2, 5, 15]
    report(
        2,
        f"verified certificates for all {counts['total']} lattices of size <= 6 "
        f"(counts independently cross-checked) in {elapsed:.2f}s",
    )


def test_criterion_03_retract_transfer_lemmas():
    counts = checks.check_retract_transfer(5)
    assert counts["retracts"] == 4722
    assert counts["with_terminal"] > 0 and counts["complete_outer"] > 0
    report(
        3,
        f"terminal and completeness transfer over all {counts['retracts']} retracts "
        f"with |A| <= 5 ({counts['with_terminal']} terminal, "
        f"{counts['complete_outer']} complete outer)",
    )


def test_criterion_04_simplex_retracts_and_sort_splits():
    for n in range(0, 7):
        ret = karoubi.simplex_retract(n)
        for k in range(n + 1):
            assert ret.retraction.image[ret.section.image[k]] == k
    for m in range(0, 6):
        ok, iso = karoubi.verify_sort_split(m)
        assert ok and iso is not None
    report(4, "simplex retracts pass r(s(k)) = k for n <= 6; sort splits give chains for m <= 5")


def test_criterion_05_triangulation_counts():
    counts = checks.check_triangulation(max_simplex=4, max_cube=4)
    assert counts["cells_checked"] == 25
    report(
        5,
        "triangulation cell counts equal (m+2)^n for n, m <= 4, with independent "
        "brute-force confirmation at n, m <= 3",
    )


def test_criterion_06_kan_extension_oracle():
    lattices = [cp.poset for s in range(1, 6) for cp in catalog.enumerate_lattices(s)]
    assert len(lattices) == 10
    evaluations = 0
    for m in range(0, 4):
        X = presheaf.representable(presheaf.delta_site(m), chain(m))
        for M in lattices:
            # default truncation m+1; every truncation in m..m+2 gives the same value
            result = presheaf.left_kan(X, M)
            assert result.depth == m + 1
            assert result.count == catalog.count_monotone_maps(M, chain(m)), (m, M)
            evaluations += 1
    report(
        6,
        f"left Kan values match |Poset(M, [m])| in all {evaluations} cases "
        "(m <= 3, |M| <= 5) at the default truncation m+1",
    )


def test_criterion_07_mono_preservation():
    counts = checks.check_mono_preservation(max_simplex=3, max_poset=5)
    assert counts["horn_instances"] == 220
    # closed-form spot check: the classical 0-horn of the 2-simplex
    mapping, src, tgt = presheaf.left_kan_map(
        presheaf.horn(2, {1, 2}), interval_power(1)
    )
    assert (src.count, tgt.count) == (5, 6)
    assert len(set(mapping)) == 5
    report(
        7,
        f"left Kan extension is injective with the union-of-faces image on all "
        f"{counts['horn_instances']} horn instances (n <= 3, |M| <= 5); "
        "spot check 5 into 6 confirmed",
    )


def test_criterion_08_horn_pushout_squares():
    squares = 0
    for n in (2, 3):
        for bits in range(1, 1 << (n + 1)):
            I = {v for v in range(n + 1) if bits >> v & 1}
            if len(I) > n:
                continue
            for i in sorted(I):
                presheaf.horn_attachment_square(n, I, i)
                squares += 1
    assert squares == 37
    report(8, f"all {squares} horn attachment squares are levelwise pushouts (n in {{2,3}})")


def test_criterion_09_hom_equivalence_instances():
    lattices = [cp.poset for s in range(1, 5) for cp in catalog.enumerate_lattices(s)]
    assert len(lattices) == 5
    pairs = 0
    for L, L2 in product(lattices, lattices):
        maps = presheaf.nat_hom_via_retract(L, L2, 4)
        assert len(maps) == catalog.count_monotone_maps(L, L2)
        pairs += 1
    report(
        9,
        f"retract-transported hom-sets equal direct enumeration on all {pairs} "
        "lattice pairs with sizes <= 4",
    )


def test_criterion_10_enumeration_cross_checks():
    sequence = [catalog.count_monotone_maps(interval_power(n), chain(1)) for n in (1, 2, 3, 4)]
    assert sequence == [3, 6, 20, 168]
    # n <= 3 confirmed by the naive truth-table filter over all 2^(2^n) functions
    for n in (1, 2, 3):
        size = 1 << n
        naive = sum(
            1
            for bits in range(1 << size)
            if all(
                (bits >> x & 1) <= (bits >> y & 1)
                for x in range(size)
                for y in range(size)
                if x & ~y == 0
            )
        )
        assert naive == sequence[n - 1]
    # n = 4: pruned enumerator under two different worker counts
    a = catalog.count_monotone_maps(interval_power(4), chain(1), workers=1)
    b = catalog.count_monotone_maps(interval_power(4), chain(1), workers=3)
    assert a == b == 168
    report(10, "map counts 3, 6, 20, 168 confirmed (truth tables for n <= 3; workers 1 vs 3 at n = 4)")


def test_criterion_11_verify_all_deterministic_and_fast():
    cmd = [sys.executable, "-m", "posetcat.cli", "verify-all"]
    # the child imports the same package as this process, also when pytest
    # put src on sys.path itself
    src = os.path.dirname(os.path.dirname(posetcat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = time.monotonic()
    first = subprocess.run(cmd, capture_output=True, timeout=300, env=env)
    first_elapsed = time.monotonic() - start
    assert first.returncode == 0, first.stderr.decode()
    assert first_elapsed < 300.0, f"took {first_elapsed:.1f}s"
    second = subprocess.run(cmd, capture_output=True, timeout=300, env=env)
    assert second.returncode == 0
    assert first.stdout == second.stdout, "reports are not byte-identical"
    data = json.loads(first.stdout)
    assert data["status"] == "pass"
    assert len(data["checks"]) == 12
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)
    report(
        11,
        f"verify-all exits 0 in {first_elapsed:.1f}s with byte-identical reports "
        "across runs",
    )
