"""Enumeration engines: posets up to isomorphism, monotone maps, retracts.

Posets of size n are built from the classes of size n - 1 by adding a new
maximal element over each down-set, and canonicalized to one per class;
lattices of size n are built from the posets of size n - 2 by adjoining a new
bottom and top, so they never touch the n-element posets.

One monotone-map search engine, `_map_search`, is the performance-critical
core: images are assigned along a fixed linear extension of the domain, with
the candidate set for each element obtained by intersecting the up-sets of the
images of its lower covers.  One flat loop walks the search tree over an
explicit stack of pending candidate masks.  Counting shares that tree without
materializing maps, and adds the popcount of each last-level mask instead of
visiting its leaves.  Per-element masks of allowed images and an injectivity
flag let the same loop find isomorphisms and retractions, and split the tree
at its root over threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Optional

from .errors import BoundExceeded
from .poset import (
    MonotoneMap,
    Poset,
    Retract,
    chain,
    identity_map,
    induced_subposet,
    is_complete,
)

POSET_SIZE_BOUND = 7
RETRACT_SIZE_BOUND = 5


def _linear_extension(P: Poset) -> list[int]:
    # |down-set| strictly increases along the order, so this sort is a linear
    # extension; index tiebreak makes it deterministic.
    return sorted(range(P.size), key=lambda i: (P.down[i].bit_count(), i))


# ---------------------------------------------------------------------------
# canonical forms


def _refined_invariants(P: Poset) -> list[tuple]:
    n = P.size
    inv: list[tuple] = [
        (P.down[i].bit_count(), P.up[i].bit_count()) for i in range(n)
    ]
    for _ in range(2):
        inv = [
            inv[i]
            + (
                tuple(sorted(inv[j] for j in range(n) if P.up[i] >> j & 1 and j != i)),
                tuple(sorted(inv[j] for j in range(n) if P.down[i] >> j & 1 and j != i)),
            )
            for i in range(n)
        ]
    return inv


def _canonical_order(P: Poset) -> tuple[bytes, tuple[int, ...]]:
    """Minimal relabeled relation matrix over invariant-respecting relabelings.

    The first invariant component is the down-set size, so every ordering that
    sorts invariants ascending is automatically a linear extension; elements
    sharing a full invariant tuple are pairwise incomparable and we try all
    interleavings within such blocks.
    """
    n = P.size
    if n == 0:
        return bytes([0]), ()
    inv = _refined_invariants(P)
    by_inv = sorted(range(n), key=lambda i: inv[i])
    blocks: list[list[int]] = [[by_inv[0]]]
    for i in by_inv[1:]:
        if inv[i] == inv[blocks[-1][-1]]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    up = P.up
    nbytes = (n * n + 7) // 8
    best_code: Optional[int] = None
    best_order: tuple[int, ...] = ()

    def rec(b: int, prefix: list[int]):
        nonlocal best_code, best_order
        if b == len(blocks):
            code = 0
            shift = 0
            for i in prefix:
                row = up[i]
                for bpos, j in enumerate(prefix):
                    if row >> j & 1:
                        code |= 1 << (shift + bpos)
                shift += n
            if best_code is None or code < best_code:
                best_code = code
                best_order = tuple(prefix)
            return
        block = blocks[b]
        if len(block) == 1:
            rec(b + 1, prefix + block)
            return
        for perm in permutations(block):
            rec(b + 1, prefix + list(perm))

    rec(0, [])
    assert best_code is not None
    return bytes([n]) + best_code.to_bytes(nbytes, "big"), best_order


def canonical_key(P: Poset) -> bytes:
    """Byte string equal for two posets iff they are isomorphic."""
    return _canonical_order(P)[0]


@dataclass(frozen=True)
class CanonicalPoset:
    """Isomorphism-class representative in canonical labeling, with its key."""

    poset: Poset
    key: bytes

    @classmethod
    def canonicalize(cls, P: Poset) -> "CanonicalPoset":
        key, order = _canonical_order(P)
        n = P.size
        up = []
        for a in range(n):
            row = 0
            for b in range(n):
                if P.up[order[a]] >> order[b] & 1:
                    row |= 1 << b
            up.append(row)
        return cls(Poset(n, tuple(up)), key)


@lru_cache(maxsize=None)
def enumerate_posets(n: int, bound: int = POSET_SIZE_BOUND) -> tuple[CanonicalPoset, ...]:
    """One canonical representative per isomorphism class of n-element posets.

    Every nonempty finite poset has a maximal element, and its strict
    down-set is a down-set of the other n - 1 elements.  So every class of
    size n arises from a representative R of size n - 1 and a down-set D of
    R by appending element n - 1 above D, and one R per class is enough,
    since isomorphic R give the same extensions up to isomorphism.  The
    down-sets are the zero sets of the monotone maps R -> [1].  Each
    extension is canonicalized, deduplicated by key and sorted by key; the
    canonical poset is the relabeled relation matrix its key encodes, so the
    keys, representatives and order are those of canonicalizing every
    naturally labeled n-poset (Brinkmann & McKay, "Posets on up to 16
    points", Order 19, 2002).
    """
    if n > bound:
        raise BoundExceeded(f"poset enumeration capped at size {bound}")
    if n == 0:
        return (CanonicalPoset.canonicalize(Poset(0, ())),)
    # Recurse through the alias, which a patched module attribute leaves
    # alone, and without `bound` where possible: it is part of the cache key.
    smaller = _posets(n - 1) if n - 1 <= POSET_SIZE_BOUND else _posets(n - 1, bound)
    top = 1 << (n - 1)
    seen: dict[bytes, CanonicalPoset] = {}
    for rep in smaller:
        R = rep.poset
        for image in _map_search(R, chain(1), emit=True):
            up = tuple(row | top if v == 0 else row for row, v in zip(R.up, image))
            cp = CanonicalPoset.canonicalize(Poset(n, up + (top,)))
            seen.setdefault(cp.key, cp)
    return tuple(seen[k] for k in sorted(seen))


_posets = enumerate_posets


def _bounded(Q: Poset) -> Poset:
    """Q with a new bottom (element 0) and a new top (element Q.size + 1) adjoined."""
    top = 1 << (Q.size + 1)
    full = (top << 1) - 1
    return Poset(Q.size + 2, (full,) + tuple(row << 1 | top for row in Q.up) + (top,))


@lru_cache(maxsize=None)
def enumerate_lattices(n: int, bound: int = POSET_SIZE_BOUND) -> tuple[CanonicalPoset, ...]:
    """Representatives of complete (= bounded-lattice) posets of size n.

    A finite lattice L with n >= 2 elements has a bottom and a top, and
    removing them leaves a poset on n - 2 elements; conversely L is that
    interior with a new bottom and top adjoined.  An isomorphism of lattices
    fixes bottom and top, so it restricts to an isomorphism of interiors, and
    an isomorphism of interiors extends to one of the bounded posets.  Hence
    running over one representative per class of (n - 2)-element posets and
    keeping the complete results yields every lattice class exactly once.
    Sizes 0 and 1 are read off the posets of that size (none and the point).
    Canonicalizing each survivor gives the same keys, representatives and
    order as filtering all n-element posets.
    """
    if n > bound:
        raise BoundExceeded(f"lattice enumeration capped at size {bound}")
    if n < 2:
        return tuple(cp for cp in enumerate_posets(n) if is_complete(cp.poset))
    found = (_bounded(cp.poset) for cp in enumerate_posets(n - 2))
    lattices = [CanonicalPoset.canonicalize(L) for L in found if is_complete(L)]
    return tuple(sorted(lattices, key=lambda cp: cp.key))


# ---------------------------------------------------------------------------
# monotone-map enumeration


def _map_search(P: Poset, Q: Poset, emit: bool, allowed=None, injective=False):
    """Search core; yields image tuples (emit=True) or one leaf count.

    Images are assigned along a linear extension of P, so level t holds the
    t-th element of it.  The candidates at a level are the meet of the
    up-sets of the images of the element's lower covers; its other
    predecessors lie below a lower cover and add nothing.  `allowed[e]`, a
    bitmask over Q, also bounds the images of element e (all of Q when None),
    and `injective` removes the images already taken on the branch.  One flat
    loop walks the tree with a stack of pending candidate masks, one per
    level, lowest candidate first, so maps come out in lexicographic order of
    the image tuple read along the extension.  At the last level every
    candidate is a leaf: emit mode yields them in turn, count mode adds the
    popcount of the mask.
    """
    n = P.size
    if n == 0:
        yield () if emit else 1
        return
    order = _linear_extension(P)
    lower = [[i for i, c in enumerate(P.covers) if c >> e & 1] for e in order]
    full = (1 << Q.size) - 1
    start = [full] * n if allowed is None else [allowed[e] for e in order]
    qup = Q.up
    img = [0] * n
    last = n - 1
    pending = [0] * n
    pending[0] = start[0]
    used = [0] * n  # images taken at the levels below t, when injective
    leaves = 0
    t = 0
    while t >= 0:
        m = pending[t]
        if t == last:
            if emit:
                e = order[t]
                while m:
                    img[e] = (m & -m).bit_length() - 1
                    m &= m - 1
                    yield tuple(img)
            else:
                leaves += m.bit_count()
            t -= 1
        elif m:
            low = m & -m
            pending[t] = m ^ low
            img[order[t]] = low.bit_length() - 1
            t += 1
            c = start[t]
            for p in lower[t]:
                c &= qup[img[p]]
            if injective:
                used[t] = used[t - 1] | low
                c &= ~used[t]
            pending[t] = c
        else:
            t -= 1
    if not emit:
        yield leaves


def _search(P: Poset, Q: Poset, emit: bool, workers: int):
    """`_map_search`, split at the root over a thread pool when workers > 1.

    Chunk q0 pins the first element of P's extension to q0, so the chunks
    merged in root order are the serial stream, for any worker count.
    """
    if workers <= 1 or Q.size <= 1 or P.size == 0:
        return _map_search(P, Q, emit)
    first = _linear_extension(P)[0]

    def chunk(q0: int) -> list:
        allowed = [(1 << Q.size) - 1] * P.size
        allowed[first] = 1 << q0
        return list(_map_search(P, Q, emit, allowed))

    with ThreadPoolExecutor(max_workers=min(workers, Q.size)) as pool:
        return [x for part in pool.map(chunk, range(Q.size)) for x in part]


def enumerate_monotone_maps(
    P: Poset, Q: Poset, workers: int = 1
) -> Iterator[MonotoneMap]:
    """Every monotone map P -> Q exactly once, in a deterministic order.

    Order is lexicographic in the image tuple read along the fixed linear
    extension of P, the same for any worker count.
    """
    for image in _search(P, Q, True, workers):
        yield MonotoneMap(P, Q, image)


def count_monotone_maps(P: Poset, Q: Poset, workers: int = 1) -> int:
    """Number of monotone maps P -> Q; same search tree, nothing materialized."""
    return sum(_search(P, Q, False, workers))


@lru_cache(maxsize=None)
def monotone_maps(P: Poset, Q: Poset) -> tuple[MonotoneMap, ...]:
    """Cached materialized hom-set, in enumeration order."""
    return tuple(enumerate_monotone_maps(P, Q))


# ---------------------------------------------------------------------------
# isomorphism search


def find_isomorphism(P: Poset, Q: Poset) -> Optional[MonotoneMap]:
    """An order-isomorphism P -> Q (monotone with monotone inverse), or None.

    The search runs over injective monotone maps that send each element to
    one with the same (down-count, up-count) invariant, and takes the first.
    Every such map is an isomorphism: equal sorted invariants give P and Q
    equally many comparable pairs x < y, a bijective monotone map sends the
    pairs of P injectively into those of Q, hence onto them, so it reflects
    the order too.  The first map found is the least image tuple along P's
    linear extension.
    """
    n = P.size
    if n != Q.size:
        return None
    inv_p = [(P.down[i].bit_count(), P.up[i].bit_count()) for i in range(n)]
    inv_q = [(Q.down[i].bit_count(), Q.up[i].bit_count()) for i in range(n)]
    if sorted(inv_p) != sorted(inv_q):
        return None
    allowed = [sum(1 << q for q in range(n) if inv_q[q] == v) for v in inv_p]
    image = next(_map_search(P, Q, emit=True, allowed=allowed, injective=True), None)
    return None if image is None else MonotoneMap(P, Q, image)


# ---------------------------------------------------------------------------
# retract enumeration


def _retractions_onto(A: Poset, keep: list[int], B: Poset, emit: bool = True):
    """Monotone maps A -> B fixing the kept elements pointwise (B = A|keep).

    A retraction r fixes every kept k, so k <= v gives k <= r(v) and v <= k
    gives r(v) <= k: each element v may only go to the intersection of
    up_B(k) over kept k <= v and down_B(k) over kept k >= v.  For a kept v this is its
    own position in B (k = v bounds it from both sides).  The masks drop
    only candidates that no retraction takes, so the stream is still
    `_map_search`'s order of all retractions, or with emit=False one count
    of them.
    """
    full = (1 << B.size) - 1
    allowed = []
    for v in range(A.size):
        m = full
        for i, k in enumerate(keep):
            if A.down[v] >> k & 1:
                m &= B.up[i]
            if A.up[v] >> k & 1:
                m &= B.down[i]
        allowed.append(m)
    return _map_search(A, B, emit, allowed)


def enumerate_retracts(
    max_size: int, bound: int = RETRACT_SIZE_BOUND
) -> Iterator[Retract]:
    """All retract diagrams (A, B, r, s) with rs = id and |A| <= max_size.

    A runs over isomorphism-class representatives; B runs over all induced
    subposets of A (sections of poset retracts are order-embeddings, so every
    retract appears this way), r over all monotone retractions fixing B.
    """
    if max_size > bound:
        raise BoundExceeded(f"retract enumeration capped at outer size {bound}")
    for n in range(max_size + 1):
        for cp in enumerate_posets(n):
            A = cp.poset
            if n == 0:
                yield Retract(A, A, identity_map(A), identity_map(A))
                continue
            for mask in range(1, 1 << n):
                keep = [e for e in range(n) if mask >> e & 1]
                B, incl = induced_subposet(A, keep)
                for image in _retractions_onto(A, keep, B):
                    yield Retract(A, B, incl, MonotoneMap(A, B, image))
