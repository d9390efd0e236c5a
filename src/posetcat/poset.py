"""Finite posets and monotone maps as bitmask relation matrices.

Elements are dense indices 0..size-1; the order relation is stored row-wise
as up-set bitmasks (bit j of up[i] set iff i <= j).  The value types are
tuples (namedtuple subclasses whose `__new__` checks the fields), so they are
immutable, compared and hashed by value in C, and can be shared freely and
memoized.  Code reads them by field name only; `_make` and `_replace` would
skip the checks.  A stream of maps between one pair of posets comes as
images of the elements outside an antichain; `checked_maps` checks each
image where it differs from the previous one, finds the values each
antichain element may take, and builds the maps of the image itself.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cached_property, lru_cache
from itertools import compress, product as iproduct, repeat
from operator import is_not

from .errors import (
    BoundExceeded,
    CycleError,
    DomainMismatch,
    InvariantViolation,
    NotComplete,
    SchemaError,
)


class Poset(namedtuple("Poset", "size up")):
    """Finite poset on 0..size-1 with up[i] = bitmask of {j : i <= j}.

    Keeps an instance dict (no `__slots__`) for its cached properties.
    """

    def __new__(cls, size: int, up: Iterable[int]):
        up = tuple(up)
        n = size
        if len(up) != n:
            raise ValueError("up must have one row per element")
        full = (1 << n) - 1
        for i, row in enumerate(up):
            if row & ~full:
                raise ValueError("relation references elements out of range")
            if not row >> i & 1:
                raise ValueError(f"not reflexive at {i}")
        for i in range(n):
            m = up[i] & ~(1 << i)
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if up[j] >> i & 1:
                    raise ValueError(f"not antisymmetric at ({i},{j})")
                if up[j] & ~up[i]:
                    raise ValueError(f"not transitive through ({i},{j})")
        return tuple.__new__(cls, (size, up))

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
        down = self.down
        for i, row in enumerate(self.up):
            strict = row & ~(1 << i)
            cov = 0
            m = strict
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if not (strict & down[j] & ~(1 << j)):
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
        return f"Poset(size={self.size}, covers={list(self.cover_edges)})"


class MonotoneMap(namedtuple("MonotoneMap", "dom cod image")):
    """Order-preserving function, stored as the image vector over dom indices.

    Construction checks the length, that every image value is an int (not a
    bool) in range, and f(i) <= f(j) on the covering pairs i < j of the domain.
    """

    __slots__ = ()

    def __new__(cls, dom: Poset, cod: Poset, image: Iterable[int]):
        img = tuple(image)
        if len(img) != dom.size:
            raise ValueError("image length must equal domain size")
        # 1.0 and True pass min/max, so the types are checked too, in one C pass
        if img and not ({*map(type, img)} == {int} and 0 <= min(img) and max(img) < cod.size):
            raise ValueError("image value out of range")
        # In a finite poset i < j iff a chain of covers runs from i to j, and
        # cod is transitive, so f(i) <= f(j) on covers gives it on all pairs.
        cod_up = cod.up
        for i, j in dom.cover_edges:
            if not cod_up[img[i]] >> img[j] & 1:
                raise ValueError(f"not monotone on {i} <= {j}")
        return tuple.__new__(cls, (dom, cod, img))

    def __repr__(self):
        return f"MonotoneMap({self.dom.size}->{self.cod.size}, {list(self.image)})"


def checked_maps(
    dom: Poset, cod: Poset, images: Iterable[Iterable[int]], free: Iterable[int] = ()
) -> Iterator[MonotoneMap]:
    """Every monotone extension of each outer image, as MonotoneMaps dom -> cod.

    `free` lists pairwise incomparable elements of dom; the others, in
    increasing index, are the outer elements, and each image gives a value
    for each of them.  An image stands for a block: the maps that take its
    outer values and, on each free element a, any value in `ok`: those at
    or above the values of a's lower covers and at or below those of its
    upper covers.
    They are built in domain order by one `itertools.product`, varying along
    the free elements in increasing index, the last fastest.  An image where
    some `ok` is empty has no extension and yields nothing.  With no free
    element an image is one map.

    `free` is checked first: distinct elements of dom, no two comparable.
    Then each image gets the length check, and its values are checked where
    they differ from the previous image's, the first image in full: each
    must be an int in range, and the cover edges between two outer elements
    that touch a changed position must hold.  Every cover edge of dom joins
    two outer elements, checked when one of its ends last changed, or a free
    and an outer element, which holds for every candidate since the
    candidates are exactly `ok`; none joins two free elements, as they are
    incomparable.  So by induction every map yielded is in range and
    monotone on all covers, whatever produced the images.  Raises ValueError
    at the first image that fails, after yielding the maps of the images
    before it.  A position counts as unchanged only when it holds the very
    object it held before (`is_not`, cheaper than `!=` and never looser: an
    equal but distinct value such as 1.0 for 1 is checked again).
    """
    free = tuple(free)
    n, q, dom_up, cod_up, cod_down = dom.size, cod.size, dom.up, cod.up, cod.down
    for t, a in enumerate(free):
        if not (isinstance(a, int) and 0 <= a < n):
            raise ValueError(f"free element {a!r} is not in the domain")
        for b in free[:t]:
            if a == b:
                raise ValueError(f"free element {a} is repeated")
            if dom_up[a] >> b & 1 or dom_up[b] >> a & 1:
                raise ValueError(f"free elements {b} and {a} are comparable")
    outer = [e for e in range(n) if e not in free]
    slot = {e: p for p, e in enumerate(outer)}  # each outer element's position
    k = len(outer)
    touching = [[] for _ in range(k)]  # the outer-outer cover edges at each position
    for i, j in dom.cover_edges:
        if i in slot and j in slot:
            edge = (slot[i], slot[j], i, j)
            touching[slot[i]].append(edge)
            touching[slot[j]].append(edge)
    # the covers of a free element are outer, as free is an antichain
    covers = dom.covers
    free = sorted(free)
    lower = [[slot[i] for i in outer if covers[i] >> a & 1] for a in free]
    upper = [[slot[j] for j in outer if covers[a] >> j & 1] for a in free]
    full = (1 << q) - 1
    one = [(v,) for v in range(q)]
    values: dict[int, tuple[int, ...]] = {}  # candidate tuple of each `ok` seen
    args: list[tuple[int, ...]] = [()] * n  # the values product takes, in domain order
    positions = range(k)
    last = (object(),) * k  # no image holds it, so the first is checked in full
    new, kind, doms, cods = tuple.__new__, repeat(MonotoneMap), repeat(dom), repeat(cod)
    for img in images:
        img = tuple(img)
        if len(img) != k:
            raise ValueError("image length must equal the number of outer elements")
        changed = list(compress(positions, map(is_not, last, img)))
        for p in changed:
            v = img[p]
            if not (_is_int(v) and 0 <= v < q):
                raise ValueError("image value out of range")
        for p in changed:
            for pi, pj, i, j in touching[p]:
                if not cod_up[img[pi]] >> img[pj] & 1:
                    raise ValueError(f"not monotone on {i} <= {j}")
            args[outer[p]] = one[img[p]]
        last = img
        if not free:
            yield new(MonotoneMap, (dom, cod, img))
            continue
        for a, lo, hi in zip(free, lower, upper):
            ok = full
            for p in lo:
                ok &= cod_up[img[p]]
            for p in hi:
                ok &= cod_down[img[p]]
            if not ok:
                break
            try:
                args[a] = values[ok]
            except KeyError:
                args[a] = values[ok] = tuple(v for v in range(q) if ok >> v & 1)
        else:
            yield from map(new, kind, zip(doms, cods, iproduct(*args)))


class Retract(namedtuple("Retract", "outer inner section retraction")):
    """Retract diagram: retraction . section = identity on inner."""

    __slots__ = ()

    def __new__(cls, outer: Poset, inner: Poset, section: MonotoneMap,
                retraction: MonotoneMap):
        if section.dom != inner or section.cod != outer:
            raise DomainMismatch("section must map inner -> outer")
        if retraction.dom != outer or retraction.cod != inner:
            raise DomainMismatch("retraction must map outer -> inner")
        r, s = retraction.image, section.image
        for b in range(inner.size):
            if r[s[b]] != b:
                raise InvariantViolation("retraction . section is not the identity")
        return tuple.__new__(cls, (outer, inner, section, retraction))


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
    try:  # closed and in range, so antisymmetry is the only law Poset can find broken
        return Poset(size, up)
    except ValueError as exc:
        raise CycleError(f"the relation has a cycle: {exc}") from None


def identity_map(P: Poset) -> MonotoneMap:
    return MonotoneMap(P, P, tuple(range(P.size)))


def compose(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """Composite g . f (apply f first)."""
    if f.cod != g.dom:
        raise DomainMismatch("codomain of f must equal domain of g")
    gi = g.image
    return MonotoneMap(f.dom, g.cod, tuple(gi[x] for x in f.image))


def product(P: Poset, Q: Poset) -> Poset:
    """Componentwise order; element (p, q) is encoded as p + P.size * q."""
    np_ = P.size
    up = []
    for qrow in Q.up:
        for prow in P.up:
            row = 0
            m = qrow
            while m:
                j2 = (m & -m).bit_length() - 1
                m &= m - 1
                # rows of the product: shift P-row into the j2-block
                row |= prow << (np_ * j2)
            up.append(row)
    return Poset(len(up), tuple(up))


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


def _bound(rows: tuple[int, ...], common: int) -> int | None:
    """The element whose row is `common`, or None.

    With rows = P.up and common the intersection of the up-rows of a set S,
    that element is the join of S: it is an upper bound of S below every
    other one.  With P.down it is the meet.  An empty S leaves the full
    mask, so its join is the bottom and its meet the top.  Antisymmetry
    makes the rows distinct, so at most one element matches.
    """
    try:
        return rows.index(common)
    except ValueError:
        return None


def terminal(P: Poset) -> int | None:
    """The unique element above everything, if it exists."""
    return _bound(P.down, (1 << P.size) - 1)


def meet(P: Poset, a: int, b: int) -> int | None:
    """Greatest lower bound of {a, b}, or None."""
    return _bound(P.down, P.down[a] & P.down[b])


def join(P: Poset, a: int, b: int) -> int | None:
    """Least upper bound of {a, b}, or None."""
    return _bound(P.up, P.up[a] & P.up[b])


@lru_cache(maxsize=64)
def is_complete(P: Poset) -> bool:
    """Nonempty with all binary meets and joins.

    For finite posets this is equivalent to having all limits and colimits:
    top and bottom follow by iterating the binary operations.  Cached, since
    `left_kan` asks it of its target on every call and the default
    `verify-all` extends into the same ten lattices 290 times; the retract
    audit asks once per outer and once per inner poset.  The cache is small
    because an unbounded one would keep every poset a run tests.
    """
    if P.size == 0:
        return False
    for a in range(P.size):
        for b in range(a, P.size):
            if meet(P, a, b) is None or join(P, a, b) is None:
                return False
    return True


def induced_rows(P: Poset, keep: list[int]) -> tuple[int, ...]:
    """Up-set rows of the subposet of P on `keep`, element keep[i] as i."""
    up = P.up
    return tuple(sum(1 << i for i, f in enumerate(keep) if up[e] >> f & 1) for e in keep)


def induced_subposet(P: Poset, elements: Iterable[int]) -> tuple[Poset, MonotoneMap]:
    """Subposet on the given elements (sorted) with its inclusion map."""
    els = sorted(set(elements))
    sub = Poset(len(els), induced_rows(P, els))
    return sub, MonotoneMap(sub, P, els)


def limit_via_retract(ret: Retract, targets: Iterable[int]) -> int:
    """Infimum in the inner poset, computed by transport along the retract.

    Lifts the targets through the section, takes their infimum m in the
    outer poset, and maps it back through the retraction: r(m) is below
    each target, and s(y) <= m for any lower bound y, so y = r(s(y)) <= r(m).
    Raises NotComplete when the outer poset has no such infimum.  The
    result is not checked here: the `retract-transfer` audit compares every
    transported infimum with one read off the inner order alone.
    """
    down, section = ret.outer.down, ret.section.image
    common = (1 << ret.outer.size) - 1
    for t in targets:
        common &= down[section[t]]
    inf = _bound(down, common)
    if inf is None:
        raise NotComplete("the section images have no infimum in the outer poset")
    return ret.retraction.image[inf]


def poset_to_json(P: Poset) -> dict:
    """JSON form {"size": n, "relation": covering pairs}; closure restores the order."""
    return {"size": P.size, "relation": [list(p) for p in P.cover_edges]}


# Bound on the size of a poset read from user JSON: the closure and the
# construction checks are quadratic in it (a 256-chain reads in 0.08 s and
# finds its covers in 0.04 s more on a 2 vCPU Xeon VM; 512 takes 0.25 s).
JSON_POSET_BOUND = 256


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def poset_from_json(data: dict, max_size: int) -> Poset:
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
    if size > max_size:
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

