"""Idempotent splittings and lattice-in-cube retract certificates.

The two audit directions: every idempotent endomorphism of a cube splits
through a complete poset, and every complete finite poset embeds as a retract
of the cube on its elements (down-set section, join retraction).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
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

EXHAUSTIVE_DIM_BOUND = 3
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


@dataclass(frozen=True)
class Splitting:
    """Factorization of an idempotent through its middle poset."""

    idem: Idempotent
    mid: Poset
    retraction: MonotoneMap
    section: MonotoneMap

    def __post_init__(self):
        r, s, f = self.retraction, self.section, self.idem.map
        for b in range(self.mid.size):
            if r.image[s.image[b]] != b:
                raise NotIdempotent("retraction . section is not the identity")
        for a in range(f.dom.size):
            if s.image[r.image[a]] != f.image[a]:
                raise NotIdempotent("section . retraction differs from the idempotent")


@dataclass(frozen=True)
class RetractCertificate:
    """Witness that a complete poset is a retract of the cube on its elements.

    section(c) is the indicator vertex of the down-set of c; retraction(x) is
    the join of the elements indicated by x (bottom for the empty set).
    """

    lattice: Poset
    cube_dim: int
    section: MonotoneMap
    retraction: MonotoneMap

    def __post_init__(self):
        for c in range(self.lattice.size):
            if self.retraction.image[self.section.image[c]] != c:
                raise NotComplete("certificate retraction . section is not the identity")


def split_idempotent(f: Idempotent) -> Splitting:
    """Split through the induced subposet on the fixed points (= the image)."""
    P = f.map.dom
    fixed = [a for a in range(P.size) if f.map.image[a] == a]
    mid, incl = induced_subposet(P, fixed)
    pos = {a: i for i, a in enumerate(fixed)}
    retraction = MonotoneMap(P, mid, tuple(pos[f.map.image[a]] for a in range(P.size)))
    return Splitting(f, mid, retraction, incl)


def coequalizer_quotient(f: Idempotent) -> Poset:
    """Quotient of the domain by a ~ f(a), with the induced order.

    Independent of split_idempotent; used to check the splitting middle is
    unique up to isomorphism.
    """
    P = f.map.dom
    reps = [a for a in range(P.size) if f.map.image[a] == a]
    pos = {a: i for i, a in enumerate(reps)}
    cls = [pos[f.map.image[a]] for a in range(P.size)]
    k = len(reps)
    up = [1 << i for i in range(k)]
    for a in range(P.size):
        m = P.up[a]
        while m:
            b = (m & -m).bit_length() - 1
            m &= m - 1
            up[cls[a]] |= 1 << cls[b]
    # transitive closure of the induced relation
    for t in range(k):
        bit = 1 << t
        for i in range(k):
            if up[i] & bit:
                up[i] |= up[t]
    return Poset(k, tuple(up))


@dataclass
class AuditReport:
    """Result of an idempotent-splitting audit over cube endomorphisms."""

    dim: int
    mode: str
    endos: int
    idempotents: int
    split_classes: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    seed: Optional[int] = None
    samples: Optional[int] = None
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations


def audit_report_to_json(report: AuditReport, include_timing: bool = False) -> dict:
    data = {
        "dim": report.dim,
        "mode": report.mode,
        "endos": report.endos,
        "idempotents": report.idempotents,
        "splits": {k.hex(): v for k, v in sorted(report.split_classes.items())},
        "violations": report.violations,
    }
    if report.mode == "sampled":
        data["seed"] = report.seed
        data["samples"] = report.samples
    if include_timing:
        data["wall_time"] = report.wall_time
    return data


def _check_split(f: MonotoneMap, report: AuditReport):
    splitting = split_idempotent(Idempotent(f))
    if not is_complete(splitting.mid):
        report.violations.append(
            {"image": list(f.image), "reason": "split middle is not complete"}
        )
        return
    key = catalog.canonical_key(splitting.mid)
    report.split_classes[key] = report.split_classes.get(key, 0) + 1


def audit_cube_idempotents(
    n: int,
    mode: str = "exhaustive",
    samples: int = 100000,
    seed: int = 0,
) -> AuditReport:
    """Split every idempotent endomorphism of [1]^n and test completeness.

    Exhaustive mode enumerates the full endomorphism monoid (bounded at
    dimension 3, where |End| = 20^3 = 8000); sampled mode draws seeded random
    monotone endomorphisms and audits the distinct idempotents found.
    """
    start = time.monotonic()
    Q = interval_power(n)
    if mode == "exhaustive":
        if n > EXHAUSTIVE_DIM_BOUND:
            raise BoundExceeded(
                f"exhaustive audit capped at dimension {EXHAUSTIVE_DIM_BOUND}; use sampled mode"
            )
        report = AuditReport(dim=n, mode=mode, endos=0, idempotents=0)
        for f in catalog.enumerate_monotone_maps(Q, Q):
            report.endos += 1
            img = f.image
            if any(img[img[x]] != img[x] for x in range(Q.size)):
                continue
            report.idempotents += 1
            _check_split(f, report)
    elif mode == "sampled":
        if n > 4:
            raise BoundExceeded("sampled audit capped at dimension 4")
        rng = random.Random(seed)
        report = AuditReport(
            dim=n, mode=mode, endos=samples, idempotents=0, seed=seed, samples=samples
        )
        seen = set()
        for _ in range(samples):
            f = catalog.random_monotone_map(Q, Q, rng)
            img = f.image
            if any(img[img[x]] != img[x] for x in range(Q.size)):
                continue
            if img in seen:
                continue
            seen.add(img)
            report.idempotents += 1
            _check_split(f, report)
    else:
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    report.wall_time = time.monotonic() - start
    return report


def retract_certificate(C: Poset) -> RetractCertificate:
    """Down-set section and join retraction exhibiting C as a retract of [1]^|C|."""
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
    return RetractCertificate(C, n, section, retraction)


def downset_lattice(C: Poset) -> tuple[Poset, tuple[int, ...]]:
    """Poset of down-sets of C ordered by inclusion, with the mask per element.

    This is the intermediate object of the two-step retract construction
    (antitone 0/1 functions on C); exposed for the documentation audit.  A
    down-set is the zero set of a monotone map C -> [1], so the masks are read
    from the uncached hom-set stream (leaving the `monotone_maps` cache alone),
    sorted, and ordered by inclusion as vertices of the cube [1]^|C|.
    """
    masks = sorted(
        sum(1 << e for e, v in enumerate(f.image) if v == 0)
        for f in catalog.enumerate_monotone_maps(C, chain(1))
    )
    DL, _ = induced_subposet(interval_power(C.size), masks)
    return DL, tuple(masks)


def two_step_certificate_maps(C: Poset) -> tuple[MonotoneMap, MonotoneMap]:
    """Section/retraction built through the down-set lattice, for comparison.

    First step embeds C into its down-set lattice (principal down-sets, with
    join as the retraction); second step includes down-sets among all subsets
    of |C| (with down-closure as the retraction).  The composites must agree
    with the collapsed formulas of retract_certificate.
    """
    if not is_complete(C):
        raise NotComplete("only complete posets admit the certificate")
    n = C.size
    cube_poset = interval_power(n)
    DL, masks = downset_lattice(C)
    pos = {D: i for i, D in enumerate(masks)}
    lat = lattice_structure(C)

    def join_of(mask: int) -> int:
        acc = lat.bottom
        m = mask
        while m:
            c = (m & -m).bit_length() - 1
            m &= m - 1
            acc = lat.join_table[acc][c]
        return acc

    def down_closure(x: int) -> int:
        acc = 0
        m = x
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            acc |= C.down[i]
        return acc

    y = MonotoneMap(C, DL, tuple(pos[C.down[c]] for c in range(n)))
    r1 = MonotoneMap(DL, C, tuple(join_of(D) for D in masks))
    s2 = MonotoneMap(DL, cube_poset, masks)
    r2 = MonotoneMap(cube_poset, DL, tuple(pos[down_closure(x)] for x in range(1 << n)))
    return compose(s2, y), compose(r1, r2)


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
    iso = catalog.find_isomorphism(splitting.mid, chain(m))
    if iso is None:
        return False, None
    simplex = simplex_retract(m)
    inv = [0] * (m + 1)
    for i, k in enumerate(iso.image):
        inv[k] = i
    for x in range(1 << m):
        if iso.image[splitting.retraction.image[x]] != simplex.retraction.image[x]:
            return False, iso
    for k in range(m + 1):
        if splitting.section.image[inv[k]] != simplex.section.image[k]:
            return False, iso
    return True, iso
