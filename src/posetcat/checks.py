"""The verification suite behind `posetcat verify-all`.

Each check runs one family of audits at the given bounds and reports counts;
a check fails by raising (caught and recorded) or returning violations.  The
acceptance tests call these functions directly at the spec bounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import catalog, karoubi, presheaf
from .errors import InvariantViolation
from .poset import (
    MonotoneMap,
    Poset,
    chain,
    compose,
    identity_map,
    interval_power,
    is_complete,
    limit_via_retract,
    meet,
    join,
    product,
    terminal,
    validate_poset,
)

LATTICE_CERTIFICATE_SIZE = 6


def require(cond: bool, msg: object) -> None:
    """Fail the running check with InvariantViolation(msg) unless cond holds.

    Unlike `assert`, this still checks under `python -O`.
    """
    if not cond:
        raise InvariantViolation(str(msg))


@dataclass
class CheckRecord:
    name: str
    params: dict
    passed: bool
    counts: dict
    elapsed: float
    error: Optional[str] = None


@dataclass
class VerificationReport:
    suite: str
    params: dict = field(default_factory=dict)
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def report_to_json(report: VerificationReport, timings: bool = False) -> dict:
    checks = []
    for c in sorted(report.checks, key=lambda c: c.name):
        record = {
            "name": c.name,
            "params": c.params,
            "status": "pass" if c.passed else "fail",
            "counts": c.counts,
        }
        if c.error is not None:
            record["error"] = c.error
        if timings:
            record["elapsed"] = round(c.elapsed, 3)
        checks.append(record)
    return {
        "suite": report.suite,
        "params": report.params,
        "status": "pass" if report.passed else "fail",
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# individual checks


def check_poset_laws(max_poset: int) -> dict:
    """Meet/join against the definitional oracle, plus composition laws."""
    posets = [cp.poset for s in range(max_poset + 1) for cp in catalog.enumerate_posets(s)]
    pairs = 0
    for P in posets:
        for a in range(P.size):
            for b in range(P.size):
                lower = [x for x in range(P.size) if P.leq(x, a) and P.leq(x, b)]
                glb = [x for x in lower if all(P.leq(y, x) for y in lower)]
                m = meet(P, a, b)
                require(m == (glb[0] if glb else None), ("meet", P, a, b))
                upper = [x for x in range(P.size) if P.leq(a, x) and P.leq(b, x)]
                lub = [x for x in upper if all(P.leq(x, y) for y in upper)]
                j = join(P, a, b)
                require(j == (lub[0] if lub else None), ("join", P, a, b))
                pairs += 1
    # associativity/unit laws on a fixed sample of composable triples
    triples = 0
    sample = [chain(1), chain(2), interval_power(2), validate_poset({(0, 2), (1, 2)}, 3)]
    for P in sample:
        for Q in sample:
            fs = catalog.monotone_maps(P, Q)[:3]
            for R in sample:
                gs = catalog.monotone_maps(Q, R)[:3]
                hs = catalog.monotone_maps(R, chain(1))[:2]
                for f in fs:
                    require(compose(f, MonotoneMap(P, P, tuple(range(P.size)))) == f, ("unit", f))
                    for g in gs:
                        gf = compose(g, f)
                        for h in hs:
                            require(
                                compose(h, gf) == compose(compose(h, g), f),
                                ("associativity", f, g, h),
                            )
                            triples += 1
    return {"posets": len(posets), "pairs": pairs, "triples": triples}


def check_retract_transfer(max_poset: int) -> dict:
    """Terminal and completeness transfer along every retract with small outer."""
    retracts = with_terminal = complete = limits = 0
    for ret in catalog.enumerate_retracts(max_poset):
        retracts += 1
        A, B = ret.outer, ret.inner
        t_a = terminal(A)
        if t_a is not None:
            with_terminal += 1
            image = ret.retraction.image[t_a]
            require(terminal(B) == image, ("terminal", A, B))
        if is_complete(A):
            complete += 1
            require(is_complete(B), ("completeness", A, B))
            # transported infima agree with the definitional infimum in B
            subsets = [[b] for b in range(B.size)]
            subsets += [[a, b] for a in range(B.size) for b in range(a + 1, B.size)]
            subsets.append(list(range(B.size)))
            subsets.append([])
            for targets in subsets:
                got = limit_via_retract(ret, targets)
                lower = [
                    x for x in range(B.size) if all(B.leq(x, t) for t in targets)
                ]
                best = [x for x in lower if all(B.leq(y, x) for y in lower)]
                require(bool(best) and got == best[0], ("infimum", A, B, targets))
                limits += 1
    return {
        "retracts": retracts,
        "with_terminal": with_terminal,
        "complete_outer": complete,
        "limits": limits,
    }


def check_cube_idempotents(max_dim: int, deep: bool = False) -> dict:
    """Exhaustive splitting audits; every split middle must be complete."""
    dims = list(range(min(max_dim, 3) + 1))
    if deep and 3 not in dims:
        dims.append(3)
    dedekind = {0: 2, 1: 3, 2: 6, 3: 20}
    counts = {}
    for n in dims:
        report = karoubi.audit_cube_idempotents(n)
        require(not report.violations, report.violations)
        require(report.endos == dedekind[n] ** n, ("endos", n, report.endos))
        counts[f"dim{n}_endos"] = report.endos
        counts[f"dim{n}_idempotents"] = report.idempotents
    return counts


def _independent_lattice_count(n: int) -> int:
    """Count lattices of size n up to isomorphism by brute-force filtering.

    Enumerates transitive reflexive upper-triangular relations directly and
    deduplicates with pairwise isomorphism search; shares nothing with the
    recursive enumerator or canonical keys.
    """
    if n == 0:
        return 0
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found: list[Poset] = []
    for bits in range(1 << len(slots)):
        up = [1 << i for i in range(n)]
        for s, (i, j) in enumerate(slots):
            if bits >> s & 1:
                up[i] |= 1 << j
        ok = True
        for i in range(n):
            m = up[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if up[j] & ~up[i]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        P = Poset(n, tuple(up))
        if not is_complete(P):
            continue
        if not any(catalog.find_isomorphism(P, Q) for Q in found):
            found.append(P)
    return len(found)


def check_lattice_certificates(max_size: int = LATTICE_CERTIFICATE_SIZE) -> dict:
    """A certificate (a Retract) for every lattice up to iso, and an independent count."""
    total = 0
    per_size = {}
    for n in range(1, max_size + 1):
        lats = catalog.enumerate_lattices(n)
        require(len(lats) == _independent_lattice_count(n), ("lattice count", n))
        for cp in lats:
            karoubi.retract_certificate(cp.poset)
        per_size[f"size{n}"] = len(lats)
        total += len(lats)
    per_size["total"] = total
    return per_size


def check_simplex_retracts(max_n: int = 6) -> dict:
    """Build each simplex retract; Retract checks retraction . section = id."""
    for n in range(max_n + 1):
        karoubi.simplex_retract(n)
    return {"max_dim": max_n}


def check_sort_splits(max_m: int = 5) -> dict:
    for m in range(max_m + 1):
        ok, iso = karoubi.verify_sort_split(m)
        require(ok and iso is not None, ("sort split", m))
    return {"max_dim": max_m}


def _threshold_count(m: int) -> int:
    """Monotone maps [m] -> [1] by filtering all binary functions."""
    count = 0
    for bits in range(1 << (m + 1)):
        if all(
            (bits >> i & 1) <= (bits >> j & 1)
            for i in range(m + 1)
            for j in range(i, m + 1)
        ):
            count += 1
    return count


def check_triangulation(max_simplex: int, max_cube: int = 4) -> dict:
    """Cell counts of the cube triangulation against two independent oracles."""
    d = max_simplex
    checked = 0
    for n in range(max_cube + 1):
        X = presheaf.triangulate(n, d)
        for m in range(d + 1):
            expect = _threshold_count(m) ** n
            require(_threshold_count(m) == m + 2, ("threshold count", m))
            require(X.cells[m] == expect, (n, m, X.cells[m], expect))
            checked += 1
            if n <= 3 and m <= 3:
                # second oracle: filter all vertex functions into the cube
                cube_size = 1 << n
                cube_p = interval_power(n)
                brute = 0
                for code in range(cube_size ** (m + 1)):
                    img, c = [], code
                    for _ in range(m + 1):
                        img.append(c % cube_size)
                        c //= cube_size
                    if all(
                        cube_p.leq(img[i], img[j])
                        for i in range(m + 1)
                        for j in range(i, m + 1)
                    ):
                        brute += 1
                require(brute == expect, ("brute force", n, m))
    return {"cells_checked": checked, "truncation": d}


def check_kan_oracle(max_simplex: int, max_poset: int) -> dict:
    """|i_! y[m] (M)| must equal |Poset(M, [m])| at the default truncation."""
    lattices = [
        cp.poset for s in range(1, max_poset + 1) for cp in catalog.enumerate_lattices(s)
    ]
    checked = 0
    for m in range(min(3, max_simplex) + 1):
        X = presheaf.simplex(m, m)
        for M in lattices:
            result = presheaf.left_kan(X, M)
            require(result.count == catalog.count_monotone_maps(M, chain(m)), (m, M))
            checked += 1
    return {"evaluations": checked, "lattices": len(lattices)}


def _horn_index_sets(n: int):
    sets = []
    for bits in range(1, 1 << (n + 1)):
        I = frozenset(v for v in range(n + 1) if bits >> v & 1)
        if len(I) <= n:
            sets.append(I)
    return sets


def check_mono_preservation(max_simplex: int, max_poset: int) -> dict:
    """Left Kan extension sends horn inclusions to injections with the
    union-of-faces image, for every complete target poset in range."""
    lattices = [
        cp.poset for s in range(1, max_poset + 1) for cp in catalog.enumerate_lattices(s)
    ]
    horns_checked = 0
    for n in range(1, min(3, max_simplex) + 1):
        rep = presheaf.simplex(n, n)
        horns = [(I, presheaf.horn(n, I, n)) for I in _horn_index_sets(n)]
        id_cell = catalog.monotone_maps(chain(n), chain(n)).index(
            MonotoneMap(chain(n), chain(n), tuple(range(n + 1)))
        )
        for M in lattices:
            target = presheaf.left_kan(rep, M)
            homs = catalog.monotone_maps(M, chain(n))
            comp_of_hom = {
                h_idx: target.component(n, target.phi_index(n, h), id_cell)
                for h_idx, h in enumerate(homs)
            }
            require(
                len(set(comp_of_hom.values())) == len(homs) == target.count,
                ("representable components", n, M),
            )
            for I, incl in horns:
                mapping, src, _ = presheaf.left_kan_map(incl, M, target=target)
                require(len(set(mapping)) == len(mapping), ("injective", n, I, M))
                oracle = {
                    comp_of_hom[h_idx]
                    for h_idx, h in enumerate(homs)
                    if any(i not in set(h.image) for i in I)
                }
                require(set(mapping) == oracle, ("image", n, I, M))
                require(src.count == len(oracle), ("horn components", n, I, M))
                horns_checked += 1
    return {"horn_instances": horns_checked, "lattices": len(lattices)}


def check_horn_pushouts(max_simplex: int) -> dict:
    squares = 0
    for n in (2, 3):
        if n > max_simplex:
            continue
        for I in _horn_index_sets(n):
            for i in sorted(I):
                presheaf.horn_attachment_square(n, I, i)
                squares += 1
    return {"squares": squares}


def check_contracting_homotopies(max_n: int = 5) -> dict:
    """H . i_0 is constant at 0 and H . i_1 is the identity; i_x(k) = (x, k)."""
    for n in range(max_n + 1):
        H = presheaf.contracting_homotopy(n)
        square = product(chain(1), chain(n))  # (x, k) is encoded as x + 2k
        ends = (MonotoneMap(chain(n), chain(n), (0,) * (n + 1)), identity_map(chain(n)))
        for x, end in enumerate(ends):
            i_x = MonotoneMap(chain(n), square, tuple(x + 2 * k for k in range(n + 1)))
            require(compose(H, i_x) == end, ("homotopy", n, x))
    return {"max_chain": max_n}


def check_nat_hom(max_lattice: int = 4) -> dict:
    lattices = [
        cp.poset for s in range(1, max_lattice + 1) for cp in catalog.enumerate_lattices(s)
    ]
    pairs = 0
    for L in lattices:
        for L2 in lattices:
            maps = presheaf.nat_hom_via_retract(L, L2, max_lattice)
            require(len(maps) == catalog.count_monotone_maps(L, L2), ("nat-hom", L, L2))
            pairs += 1
    return {"pairs": pairs}


# ---------------------------------------------------------------------------
# suite driver


def verify_all(
    max_poset: int = 5,
    max_dim: int = 2,
    max_simplex: int = 3,
    deep: bool = False,
    seed: int = 0,
) -> VerificationReport:
    """Run every audit in spec order and collect one record per check."""
    plan: list[tuple[str, dict, Callable[[], dict]]] = [
        ("poset-laws", {"max_poset": max_poset}, lambda: check_poset_laws(max_poset)),
        ("retract-transfer", {"max_poset": max_poset}, lambda: check_retract_transfer(max_poset)),
        (
            "cube-idempotents",
            {"max_dim": max_dim, "deep": deep},
            lambda: check_cube_idempotents(max_dim, deep),
        ),
        (
            "lattice-certificates",
            {"max_size": LATTICE_CERTIFICATE_SIZE},
            lambda: check_lattice_certificates(),
        ),
        ("simplex-retracts", {"max_dim": 6}, check_simplex_retracts),
        ("sort-splits", {"max_dim": 5}, check_sort_splits),
        (
            "triangulation-counts",
            {"max_simplex": max_simplex},
            lambda: check_triangulation(max_simplex),
        ),
        (
            "kan-oracle",
            {"max_simplex": max_simplex, "max_poset": max_poset},
            lambda: check_kan_oracle(max_simplex, max_poset),
        ),
        (
            "mono-preservation",
            {"max_simplex": max_simplex, "max_poset": max_poset},
            lambda: check_mono_preservation(max_simplex, max_poset),
        ),
        ("horn-pushouts", {"max_simplex": max_simplex}, lambda: check_horn_pushouts(max_simplex)),
        ("contracting-homotopies", {"max_chain": 5}, check_contracting_homotopies),
        ("nat-hom", {"max_lattice": 4}, check_nat_hom),
    ]
    report = VerificationReport(
        suite="posetcat-verify-all",
        params={
            "max_poset": max_poset,
            "max_dim": max_dim,
            "max_simplex": max_simplex,
            "deep": deep,
            "seed": seed,
        },
    )
    for name, params, run in plan:
        start = time.monotonic()
        try:
            counts = run()
            record = CheckRecord(name, params, True, counts, time.monotonic() - start)
        except Exception as exc:  # any error inside a check is that check's failure
            record = CheckRecord(
                name, params, False, {}, time.monotonic() - start, error=str(exc)
            )
        report.checks.append(record)
    return report
