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

import time
from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional

from . import catalog, cube
from .errors import BoundExceeded, NotComplete, NotIdempotent
from .poset import (
    MonotoneMap,
    Poset,
    Retract,
    chain,
    compose,
    induced_subposet,
    interval_power,
    is_complete,
    lattice_structure,
)

AUDIT_DIM_BOUND = 4
SORT_SPLIT_BOUND = 5


@dataclass(frozen=True)
class Idempotent:
    """Endomorphism with f . f = f."""

    map: MonotoneMap

    def __post_init__(self):
        f = self.map
        if f.dom != f.cod:
            raise NotIdempotent("an idempotent must be an endomorphism")
        img = f.image
        if any(img[img[x]] != img[x] for x in range(f.dom.size)):
            raise NotIdempotent("f . f differs from f")


def split_idempotent(f: Idempotent) -> Retract:
    """Retract of the domain onto its fixed points (= the image); s . r = f."""
    P = f.map.dom
    fixed = [a for a in range(P.size) if f.map.image[a] == a]
    mid, incl = induced_subposet(P, fixed)
    pos = {a: i for i, a in enumerate(fixed)}
    retraction = MonotoneMap(P, mid, tuple(pos[f.map.image[a]] for a in range(P.size)))
    if compose(incl, retraction) != f.map:
        raise NotIdempotent("section . retraction differs from the idempotent")
    return Retract(P, mid, incl, retraction)


@dataclass
class AuditReport:
    """Result of an idempotent-splitting audit over cube endomorphisms."""

    dim: int
    endos: int
    idempotents: int
    split_classes: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations


def audit_report_to_json(report: AuditReport, include_timing: bool = False) -> dict:
    data = {
        "dim": report.dim,
        "endos": report.endos,
        "idempotents": report.idempotents,
        "splits": {k.hex(): v for k, v in sorted(report.split_classes.items())},
        "violations": report.violations,
    }
    if include_timing:
        data["wall_time"] = report.wall_time
    return data


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
    start = time.monotonic()
    Q = interval_power(n)
    report = AuditReport(
        dim=n, endos=catalog.count_monotone_maps(Q, chain(1)) ** n, idempotents=0
    )
    moves = [cube.symmetry(p).image for p in permutations(range(n))]
    seen = bytearray(1 << Q.size)
    for S in range(1, 1 << Q.size):
        if seen[S]:
            continue
        keep = [x for x in range(Q.size) if S >> x & 1]
        orbit = {sum(1 << move[x] for x in keep) for move in moves}
        for T in orbit:
            seen[T] = 1
        mid, _ = induced_subposet(Q, keep)
        r = catalog._map_count(Q, mid, catalog._retraction_masks(Q, keep, mid))
        if r == 0:
            continue
        weight = r * len(orbit)
        report.idempotents += weight
        if not is_complete(mid):
            report.violations.append(
                {"fix_set": keep, "reason": "split middle is not complete"}
            )
            continue
        key = catalog.canonical_key(mid)
        report.split_classes[key] = report.split_classes.get(key, 0) + weight
    report.wall_time = time.monotonic() - start
    return report


def retract_certificate(C: Poset) -> Retract:
    """C as a retract of [1]^|C|: section(c) is the indicator vertex of the
    down-set of c, retraction(x) the join of the elements x indicates."""
    if not is_complete(C):
        raise NotComplete("only complete posets admit the certificate")
    n = C.size
    cube_poset = interval_power(n)
    lat = lattice_structure(C)
    section = MonotoneMap(C, cube_poset, tuple(C.down[c] for c in range(n)))
    images = []
    for x in range(cube_poset.size):
        acc = lat.bottom
        m = x
        while m:
            c = (m & -m).bit_length() - 1
            m &= m - 1
            acc = lat.join_table[acc][c]
        images.append(acc)
    retraction = MonotoneMap(cube_poset, C, tuple(images))
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


def verify_sort_split(m: int) -> tuple[bool, Optional[MonotoneMap]]:
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
