"""The verification suite behind `posetcat verify-all`.

Each check runs one family of audits at the given bounds and reports counts;
a check fails by raising (caught and recorded) or returning violations.  The
acceptance tests call these functions directly at the spec bounds.

The enumerations the checks run over are counted against known answers, so
a catalog that loses a class fails its check: the posets of each size against
OEIS A000112, the lattices of each size (and every lattice sample) against
OEIS A006966, the cells of each cube triangulation against (m + 2)^n and
a chain count over the cube's vertices, and the horn instances and
attachment squares against closed forms in the dimension.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Callable

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

# Isomorphism classes by size: posets, OEIS A000112 (Brinkmann & McKay,
# "Posets on up to 16 points", Order 19, 2002), and lattices, OEIS A006966
# (Heitzig & Reinhold, "Counting finite lattices", Algebra Universalis 48,
# 2002).  A006966 counts the empty lattice; posetcat counts no lattice there.
A000112 = {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}
A006966 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}


def require(cond: bool, msg: object) -> None:
    """Fail the running check with InvariantViolation(msg) unless cond holds.

    Unlike `assert`, this still checks under `python -O`.
    """
    if not cond:
        raise InvariantViolation(str(msg))


CheckRecord = namedtuple(
    "CheckRecord", "name params passed counts elapsed error", defaults=(None,)
)


class VerificationReport(namedtuple("VerificationReport", "suite params checks")):
    """The check records of one suite run, in run order, under its params."""

    __slots__ = ()

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
    """Meet, join and terminal against the definitional oracle, plus
    composition laws.

    The oracle reads only the order relation, as one table per poset, and
    never calls `meet`, `join` or `terminal`.  The composition laws run on
    the first maps of each sampled hom-set in stream order (`[:3]` and
    `[:2]`), so for the square and the vee as domains the sample follows the
    block order of `enumerate_monotone_maps`; the triple count does not
    depend on it.
    """
    posets = []
    for s in range(max_poset + 1):
        classes = catalog.enumerate_posets(s)
        require(len(classes) == A000112[s], ("poset count", s, len(classes)))
        posets += [cp.poset for cp in classes]
    pairs = 0
    for P in posets:
        elements = range(P.size)
        leq = [[bool(row >> y & 1) for y in elements] for row in P.up]  # leq[x][y]: x <= y
        top = [x for x in elements if all(leq[y][x] for y in elements)]
        require(terminal(P) == (top[0] if top else None), ("terminal", P))
        for a in elements:
            for b in elements:
                lower = [x for x in elements if leq[x][a] and leq[x][b]]
                glb = [x for x in lower if all(leq[y][x] for y in lower)]
                m = meet(P, a, b)
                require(m == (glb[0] if glb else None), ("meet", P, a, b))
                upper = [x for x in elements if leq[a][x] and leq[b][x]]
                lub = [x for x in upper if all(leq[x][y] for y in upper)]
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


def _definitional_infima(B: Poset) -> list[tuple[list[int], int | None]]:
    """Each target set the retract audit transports (every singleton, every
    pair, all elements and none) with its infimum in B, or None, read off the
    order relation alone."""
    subsets = [[b] for b in range(B.size)]
    subsets += [[a, b] for a in range(B.size) for b in range(a + 1, B.size)]
    subsets.append(list(range(B.size)))
    subsets.append([])
    infima = []
    for targets in subsets:
        lower = [x for x in range(B.size) if all(B.leq(x, t) for t in targets)]
        best = [x for x in lower if all(B.leq(y, x) for y in lower)]
        infima.append((targets, best[0] if best else None))
    return infima


def check_retract_transfer(max_poset: int) -> dict:
    """Terminal and completeness transfer along every retract with small outer.

    `terminal` and `is_complete` of each outer poset are asked once, as are
    `is_complete` and the definitional infima of each inner poset reached
    from a complete outer one.  Every retract still has its terminal transfer
    checked, and every target set its transported infimum compared with B's.
    """
    retracts = with_terminal = complete = limits = 0
    outer = None
    inner = {}  # inner poset -> (is_complete, definitional infima)
    for ret in catalog.enumerate_retracts(max_poset):
        retracts += 1
        A, B = ret.outer, ret.inner
        if A != outer:
            outer, t_a, a_complete = A, terminal(A), is_complete(A)
        if t_a is not None:
            with_terminal += 1
            image = ret.retraction.image[t_a]
            require(terminal(B) == image, ("terminal", A, B))
        if a_complete:
            complete += 1
            if B not in inner:
                inner[B] = is_complete(B), _definitional_infima(B)
            b_complete, infima = inner[B]
            require(b_complete, ("completeness", A, B))
            # transported infima agree with the definitional infimum in B
            for targets, best in infima:
                got = limit_via_retract(ret, targets)
                require(best is not None and got == best, ("infimum", A, B, targets))
                limits += 1
    return {
        "retracts": retracts,
        "with_terminal": with_terminal,
        "complete_outer": complete,
        "limits": limits,
    }


def check_cube_idempotents(max_dim: int, deep: bool = False) -> dict:
    """Exhaustive splitting audits; every split middle must be complete."""
    dims = list(range(max_dim + 1))
    if deep and 3 not in dims:
        dims.append(3)
    dedekind = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168}
    counts = {}
    for n in dims:
        report = karoubi.audit_cube_idempotents(n)
        require(not report.violations, report.violations)
        require(report.endos == dedekind[n] ** n, ("endos", n, report.endos))
        counts[f"dim{n}_endos"] = report.endos
        counts[f"dim{n}_idempotents"] = report.idempotents
    return counts


def check_lattice_certificates(max_size: int) -> dict:
    """A certificate (a Retract) for every lattice up to iso, counted by size
    against A006966."""
    total = 0
    per_size = {}
    for n in range(1, max_size + 1):
        lats = catalog.enumerate_lattices(n)
        require(len(lats) == A006966[n], ("lattice count", n, len(lats)))
        for cp in lats:
            karoubi.retract_certificate(cp.poset)
        per_size[f"size{n}"] = len(lats)
        total += len(lats)
    per_size["total"] = total
    return per_size


def check_simplex_retracts(max_dim: int) -> dict:
    """Build each simplex retract; Retract checks retraction . section = id."""
    for n in range(max_dim + 1):
        karoubi.simplex_retract(n)
    return {"max_dim": max_dim}


def check_sort_splits(max_dim: int) -> dict:
    for m in range(max_dim + 1):
        ok, _ = karoubi.verify_sort_split(m)
        require(ok, ("sort split", m))
    return {"max_dim": max_dim}


def _cube_chain_counts(n: int, top: int) -> list[int]:
    """Chains x_0 <= ... <= x_m of vertices of [1]^n, ordered by bit
    inclusion, for m = 0..top: the zeta polynomial of the cube (Stanley,
    Enumerative Combinatorics I, ch. 3).  Uses no posetcat code."""
    vertices = range(1 << n)
    ending = [1] * (1 << n)  # chains of the current length ending at each vertex
    counts = []
    for _ in range(top + 1):
        counts.append(sum(ending))
        ending = [sum(ending[u] for u in vertices if u & ~v == 0) for v in vertices]
    return counts


def check_triangulation(max_simplex: int) -> dict:
    """Cell counts of the cube triangulation against two independent oracles,
    the closed form (m + 2)^n and a chain count, for every cube up to
    presheaf.TRIANGULATE_BOUND.

    The triangulations are representables, whose laws always hold, so a
    planted control first requires `Presheaf.validate` to reject Delta[1]
    with entry 0 of the face table (0, 1, 0) moved from 0 to 1.  Only a
    rule step can see that: the derivations alone accept it.
    """
    X = presheaf.simplex(1, 1)
    bad = dict(X.actions)
    bad[(0, 1, 0)] = (1,) + bad[(0, 1, 0)][1:]
    try:
        presheaf.Presheaf(X.site, X.cells, bad)
        error = "accepted"
    except InvariantViolation as exc:
        error = str(exc)
    require("composition law fails" in error, ("planted Delta[1] corruption", error))
    d = max_simplex
    checked = 0
    for n in range(presheaf.TRIANGULATE_BOUND + 1):
        X = presheaf.triangulate(n, d)
        chains = _cube_chain_counts(n, d)
        for m in range(d + 1):
            expect = (m + 2) ** n
            require(chains[m] == expect, ("chain count", n, m, chains[m], expect))
            require(X.cells[m] == expect, (n, m, X.cells[m], expect))
            checked += 1
    return {"cells_checked": checked, "truncation": d}


def _lattices(max_size: int) -> list[Poset]:
    """The lattices of sizes 1..max_size up to isomorphism, in catalog order,
    as many as A006966 says."""
    lattices = [
        cp.poset for s in range(1, max_size + 1) for cp in catalog.enumerate_lattices(s)
    ]
    expect = sum(A006966[s] for s in range(1, max_size + 1))
    require(len(lattices) == expect, ("lattice sample", max_size, len(lattices), expect))
    return lattices


def check_kan_oracle(max_simplex: int, max_poset: int) -> dict:
    """|i_! y[m] (M)| must equal |Poset(M, [m])| on the chain site truncated at m."""
    lattices = _lattices(max_poset)
    checked = 0
    for m in range(max_simplex + 1):
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
    union-of-faces image, for every complete target poset in range; one
    horn per nonempty proper subset of the n + 1 vertices of [n]."""
    lattices = _lattices(max_poset)
    horns_checked = 0
    for n in range(1, max_simplex + 1):
        rep = presheaf.simplex(n, n)
        horns = [(I, presheaf.horn(n, I, n)) for I in _horn_index_sets(n)]
        id_cell = catalog.monotone_maps(chain(n), chain(n)).index(
            MonotoneMap(chain(n), chain(n), tuple(range(n + 1)))
        )
        for M in lattices:
            target = presheaf.left_kan(rep, M)
            homs = catalog.monotone_maps(M, chain(n))
            comps = [target.component(n, h, id_cell) for h in homs]
            require(
                len(set(comps)) == len(homs) == target.count,
                ("representable components", n, M),
            )
            images = [set(h.image) for h in homs]
            for I, incl in horns:
                mapping, src, _ = presheaf.left_kan_map(incl, M, target=target)
                require(len(set(mapping)) == len(mapping), ("injective", n, I, M))
                # h factors through the horn iff it misses some face index in I
                oracle = {c for c, image in zip(comps, images) if not I <= image}
                require(set(mapping) == oracle, ("image", n, I, M))
                require(src.count == len(oracle), ("horn components", n, I, M))
                horns_checked += 1
    expect = sum(2 ** (n + 1) - 2 for n in range(1, max_simplex + 1)) * len(lattices)
    require(horns_checked == expect, ("horn instances", horns_checked, expect))
    return {"horn_instances": horns_checked, "lattices": len(lattices)}


def check_horn_pushouts(max_simplex: int) -> dict:
    """One attachment square per face i in I, for every nonempty proper I of
    the vertices of [n]: sum over k of k C(n + 1, k) = (n + 1)(2^n - 1)."""
    squares = 0
    for n in range(2, max_simplex + 1):
        for I in _horn_index_sets(n):
            for i in sorted(I):
                presheaf.horn_attachment_square(n, I, i)
                squares += 1
    expect = sum((n + 1) * (2 ** n - 1) for n in range(2, max_simplex + 1))
    require(squares == expect, ("squares", squares, expect))
    return {"squares": squares}


def check_contracting_homotopies(max_chain: int) -> dict:
    """H . i_0 is constant at 0 and H . i_1 is the identity; i_x(k) = (x, k)."""
    for n in range(max_chain + 1):
        H = presheaf.contracting_homotopy(n)
        square = product(chain(1), chain(n))  # (x, k) is encoded as x + 2k
        ends = (MonotoneMap(chain(n), chain(n), (0,) * (n + 1)), identity_map(chain(n)))
        for x, end in enumerate(ends):
            i_x = MonotoneMap(chain(n), square, tuple(x + 2 * k for k in range(n + 1)))
            require(compose(H, i_x) == end, ("homotopy", n, x))
    return {"max_chain": max_chain}


def check_nat_hom(max_lattice: int) -> dict:
    lattices = _lattices(max_lattice)
    pairs = 0
    for L in lattices:
        for L2 in lattices:
            maps = presheaf.nat_hom_via_retract(L, L2)
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
    """Run every audit in spec order and collect one record per check.

    Each check runs as check(**params) with the params its record prints.
    """
    plan: list[tuple[str, Callable[..., dict], dict]] = [
        ("poset-laws", check_poset_laws, {"max_poset": max_poset}),
        ("retract-transfer", check_retract_transfer, {"max_poset": max_poset}),
        ("cube-idempotents", check_cube_idempotents, {"max_dim": max_dim, "deep": deep}),
        ("lattice-certificates", check_lattice_certificates,
         {"max_size": LATTICE_CERTIFICATE_SIZE}),
        ("simplex-retracts", check_simplex_retracts, {"max_dim": 6}),
        ("sort-splits", check_sort_splits, {"max_dim": 5}),
        ("triangulation-counts", check_triangulation, {"max_simplex": max_simplex}),
        ("kan-oracle", check_kan_oracle, {"max_simplex": max_simplex, "max_poset": max_poset}),
        ("mono-preservation", check_mono_preservation,
         {"max_simplex": max_simplex, "max_poset": max_poset}),
        ("horn-pushouts", check_horn_pushouts, {"max_simplex": max_simplex}),
        ("contracting-homotopies", check_contracting_homotopies, {"max_chain": 5}),
        ("nat-hom", check_nat_hom, {"max_lattice": presheaf.NAT_HOM_BOUND}),
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
        checks=[],
    )
    for name, check, params in plan:
        start = time.monotonic()
        try:
            counts = check(**params)
            record = CheckRecord(name, params, True, counts, time.monotonic() - start)
        except Exception as exc:  # any error inside a check is that check's failure
            record = CheckRecord(
                name, params, False, {}, time.monotonic() - start, error=str(exc)
            )
        report.checks.append(record)
    return report
