"""Idempotent splittings and lattice-in-cube retract certificates.

The two audit directions: every idempotent endomorphism of a cube splits
through a complete poset, and every complete finite poset embeds as a retract
of the cube on its elements (down-set section, join retraction).  Both
directions, and the simplex retract, are `poset.Retract` diagrams.

The cube audit runs over fix sets, not endomorphisms.  An idempotent f is the
retraction onto S = Fix f = im f, and it splits through S with the induced
order, so the idempotents are the disjoint union over S of the monotone
retractions onto S, and completeness of the middle depends on S alone.  A
coordinate permutation is an automorphism of the cube: it carries S, its
retractions and its middle to their images, so one fix set per orbit is
audited and weighted by the orbit size.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations

from . import catalog, cube
from .errors import BoundExceeded, NotComplete, NotIdempotent
from .poset import (
    MonotoneMap,
    Poset,
    Retract,
    _bound,
    chain,
    compose,
    induced_rows,
    induced_subposet,
    interval_power,
    is_complete,
)

AUDIT_DIM_BOUND = 4
SORT_SPLIT_BOUND = 5


class Idempotent(namedtuple("Idempotent", "map")):
    """Endomorphism with f . f = f."""

    __slots__ = ()

    def __new__(cls, map: MonotoneMap):
        f = map
        if f.dom != f.cod:
            raise NotIdempotent("an idempotent must be an endomorphism")
        img = f.image
        if any(img[img[x]] != img[x] for x in range(f.dom.size)):
            raise NotIdempotent("f . f differs from f")
        return tuple.__new__(cls, (f,))


def split_idempotent(f: Idempotent) -> Retract:
    """Retract of the domain onto its fixed points (= the image).

    s . r = f by construction: f . f = f puts each f(a) among the fixed
    points, and s . r sends a to f(a).  Retract checks r . s = id.
    """
    P, img = f.map.dom, f.map.image
    fixed = [a for a in range(P.size) if img[a] == a]
    mid, incl = induced_subposet(P, fixed)
    pos = {a: i for i, a in enumerate(fixed)}
    retraction = MonotoneMap(P, mid, tuple(pos[img[a]] for a in range(P.size)))
    return Retract(P, mid, incl, retraction)


class AuditReport(namedtuple("AuditReport", "dim endos idempotents split_classes violations")):
    """Result of an idempotent-splitting audit over cube endomorphisms."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def audit_report_to_json(report: AuditReport) -> dict:
    """The report as JSON; `audit-idempotents --timings` adds the call's wall_time."""
    return {
        "dim": report.dim,
        "endos": report.endos,
        "idempotents": report.idempotents,
        "splits": {k.hex(): v for k, v in sorted(report.split_classes.items())},
        "violations": report.violations,
    }


def audit_cube_idempotents(n: int) -> AuditReport:
    """Split every idempotent endomorphism of [1]^n and test completeness.

    Runs over the nonempty fix sets S of [1]^n, one per orbit of the n!
    coordinate permutations (see the module docstring).  For each
    representative it counts the monotone retractions onto S, r; if r > 0,
    the r * |orbit| idempotents of the orbit split through S with the
    induced order, which must be complete.  `endos` = D(n)^n, since a map
    into a product is a tuple of maps [1]^n -> [1].
    """
    if n > AUDIT_DIM_BOUND:
        raise BoundExceeded(f"idempotent audit capped at dimension {AUDIT_DIM_BOUND}")
    Q = interval_power(n)
    endos = catalog.count_monotone_maps(Q, chain(1)) ** n
    idempotents, split_classes, violations = 0, {}, []
    moves = [cube.symmetry(p).image for p in permutations(range(n))]
    seen = bytearray(1 << Q.size)
    for S in range(1, 1 << Q.size):
        if seen[S]:
            continue
        keep = [x for x in range(Q.size) if S >> x & 1]
        orbit = {sum(1 << move[x] for x in keep) for move in moves}
        for T in orbit:
            seen[T] = 1
        mid = Poset(len(keep), induced_rows(Q, keep))
        r = catalog._map_count(Q, mid, catalog._retraction_masks(Q, keep, mid))
        if r == 0:
            continue
        weight = r * len(orbit)
        idempotents += weight
        if not is_complete(mid):
            violations.append({"fix_set": keep, "reason": "split middle is not complete"})
            continue
        key = catalog.canonical_key(mid)
        split_classes[key] = split_classes.get(key, 0) + weight
    return AuditReport(n, endos, idempotents, split_classes, violations)


def retract_certificate(C: Poset) -> Retract:
    """C as a retract of [1]^|C|: section(c) is the indicator vertex of the
    down-set of c, retraction(x) the join of the elements x indicates.

    common[x], the upper bounds of the elements x indicates, is built by
    doubling: common[x + 2^c] is common[x] & up[c] for x < 2^c, one AND per
    vertex.  The join is the element whose up-row that is.  A finite poset
    in which every subset has a join is complete, so C is complete exactly
    when every vertex has one; else this raises NotComplete.
    """
    n = C.size
    common = [(1 << n) - 1]
    for row in C.up:
        common += [u & row for u in common]
    images = [_bound(C.up, u) for u in common]
    if None in images:
        raise NotComplete("only complete posets admit the certificate")
    cube_poset = interval_power(n)
    section = MonotoneMap(C, cube_poset, tuple(C.down[c] for c in range(n)))
    retraction = MonotoneMap(cube_poset, C, images)
    return Retract(cube_poset, C, section, retraction)


def simplex_retract(n: int) -> Retract:
    """The chain 0..n as a retract of [1]^n.

    Section sends k to the vertex with k ones in the high coordinates (so it
    is monotone); retraction sends a vertex to its coordinate sum.
    """
    cube_poset = interval_power(n)
    section = MonotoneMap(
        chain(n), cube_poset, tuple(((1 << k) - 1) << (n - k) for k in range(n + 1))
    )
    retraction = MonotoneMap(
        cube_poset, chain(n), tuple(x.bit_count() for x in range(1 << n))
    )
    return Retract(cube_poset, chain(n), section, retraction)


def verify_sort_split(m: int) -> tuple[bool, MonotoneMap | None]:
    """Split the sort endomorphism of [1]^m and match it with the chain retract.

    Returns (ok, iso) where iso is an order-isomorphism from the splitting
    middle to the chain 0..m under which the split retract coincides with
    simplex_retract(m).  ok=False signals a theorem violation.
    """
    if m > SORT_SPLIT_BOUND:
        raise BoundExceeded(f"sort-split verification capped at dimension {SORT_SPLIT_BOUND}")
    f = cube.sort_endomorphism(m)
    splitting = split_idempotent(Idempotent(f))
    iso = catalog.find_isomorphism(splitting.inner, chain(m))
    if iso is None:
        return False, None
    simplex = simplex_retract(m)
    ok = (
        compose(iso, splitting.retraction) == simplex.retraction
        and compose(simplex.section, iso) == splitting.section
    )
    return ok, iso
