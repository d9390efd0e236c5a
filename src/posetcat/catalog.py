"""Enumeration engines: posets up to isomorphism, monotone maps, retracts.

Posets of size n are built from the classes of size n - 1 by adding a new
maximal element over each down-set, and canonicalized to one per class;
lattices of size n are built from the posets of size n - 2 by adjoining a new
bottom and top, so they never touch the n-element posets.  The canonical form
is the least relabeled relation matrix over the orderings that sort a
refined invariant, found by one search that fills positions back to front.

One monotone-map search engine, `_map_search`, streams hom-sets: images are
assigned along a fixed linear extension of the domain, with the candidate set
for each element obtained by intersecting the up-sets of the images of its
lower covers.  One flat loop walks the search tree over an explicit stack of
pending candidate masks.  Per-element masks of allowed images and an
injectivity flag let the same loop find isomorphisms and retractions.
Counting does not walk that tree: `_map_count` goes along the same extension
one level at a time and merges the partial maps whose remaining candidate
masks agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
# state entries `_map_count` may build over all levels of one count
COUNT_STATE_BOUND = 1 << 20


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


def _canonical_rows(P: Poset) -> tuple[int, ...]:
    """P's up-set rows relabeled by its least invariant-respecting ordering.

    The orderings tried sort the elements by `_refined_invariants`, whose
    first component is the down-set size, so each is a linear extension and
    elements sharing an invariant are pairwise incomparable.  The code
    sum(row[a] << (a * n)) compares rows from a = n - 1 down, so the search
    fills positions back to front: row a is bit a plus bit pos(f) for each f
    above the element placed at a, all placed already, so the row is final
    once placed.  While the rows above tie with the best's, a branch is
    dropped only when its row is strictly greater; a tie is explored, since
    a lower row can still break it.
    """
    n = P.size
    inv = _refined_invariants(P)
    by_inv = sorted(range(n), key=lambda i: inv[i])
    block = [sum(1 << j for j in range(n) if inv[j] == inv[i]) for i in by_inv]
    above = [row & ~(1 << i) for i, row in enumerate(P.up)]
    rows = [0] * n
    pos = [0] * n
    best: list[int] = []

    def search(p: int, free: int, tied: bool) -> None:
        if p < 0:
            best[:] = rows
            return
        cand = free & block[p]
        while cand:
            x = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            row = 1 << p
            m = above[x]
            while m:
                f = (m & -m).bit_length() - 1
                m &= m - 1
                row |= 1 << pos[f]
            if tied and row > best[p]:
                continue
            rows[p], pos[x] = row, p
            search(p - 1, free & ~(1 << x), tied and row == best[p])
            # a best found below shares every row above p
            tied = rows[p + 1 :] == best[p + 1 :]

    search(n - 1, (1 << n) - 1, False)
    return tuple(best)


def _key(rows: tuple[int, ...]) -> bytes:
    n = len(rows)
    code = sum(row << (a * n) for a, row in enumerate(rows))
    return bytes([n]) + code.to_bytes((n * n + 7) // 8, "big")


def canonical_key(P: Poset) -> bytes:
    """Byte string equal for two posets iff they are isomorphic."""
    return _key(_canonical_rows(P))


@dataclass(frozen=True)
class CanonicalPoset:
    """Isomorphism-class representative in canonical labeling, with its key."""

    poset: Poset
    key: bytes

    @classmethod
    def canonicalize(cls, P: Poset) -> "CanonicalPoset":
        rows = _canonical_rows(P)
        return cls(Poset(P.size, rows), _key(rows))


@lru_cache(maxsize=None)
def enumerate_posets(n: int) -> tuple[CanonicalPoset, ...]:
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
    if n > POSET_SIZE_BOUND:
        raise BoundExceeded(f"poset enumeration capped at size {POSET_SIZE_BOUND}")
    if n == 0:
        return (CanonicalPoset.canonicalize(Poset(0, ())),)
    smaller = enumerate_posets(n - 1)
    top = 1 << (n - 1)
    seen: dict[bytes, CanonicalPoset] = {}
    for rep in smaller:
        R = rep.poset
        for image in _map_search(R, chain(1)):
            up = tuple(row | top if v == 0 else row for row, v in zip(R.up, image))
            cp = CanonicalPoset.canonicalize(Poset(n, up + (top,)))
            seen.setdefault(cp.key, cp)
    return tuple(seen[k] for k in sorted(seen))


def _bounded(Q: Poset) -> Poset:
    """Q with a new bottom (element 0) and a new top (element Q.size + 1) adjoined."""
    top = 1 << (Q.size + 1)
    full = (top << 1) - 1
    return Poset(Q.size + 2, (full,) + tuple(row << 1 | top for row in Q.up) + (top,))


@lru_cache(maxsize=None)
def enumerate_lattices(n: int) -> tuple[CanonicalPoset, ...]:
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
    if n > POSET_SIZE_BOUND:
        raise BoundExceeded(f"lattice enumeration capped at size {POSET_SIZE_BOUND}")
    if n < 2:
        return tuple(cp for cp in enumerate_posets(n) if is_complete(cp.poset))
    found = (_bounded(cp.poset) for cp in enumerate_posets(n - 2))
    lattices = [CanonicalPoset.canonicalize(L) for L in found if is_complete(L)]
    return tuple(sorted(lattices, key=lambda cp: cp.key))


# ---------------------------------------------------------------------------
# monotone-map enumeration


def _map_search(P: Poset, Q: Poset, allowed=None, injective=False):
    """Search core; yields the image tuple of every monotone map P -> Q.

    Images are assigned along a linear extension of P, so level t holds the
    t-th element of it.  The candidates at a level are the meet of the
    up-sets of the images of the element's lower covers; its other
    predecessors lie below a lower cover and add nothing.  `allowed[e]`, a
    bitmask over Q, also bounds the images of element e (all of Q when None),
    and `injective` removes the images already taken on the branch.  One flat
    loop walks the tree with a stack of pending candidate masks, one per
    level, lowest candidate first, so maps come out in lexicographic order of
    the image tuple read along the extension.
    """
    n = P.size
    if n == 0:
        yield ()
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
    t = 0
    while t >= 0:
        m = pending[t]
        if t == last:
            e = order[t]
            while m:
                img[e] = (m & -m).bit_length() - 1
                m &= m - 1
                yield tuple(img)
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


def _map_count(P: Poset, Q: Poset, allowed=None) -> int:
    """Number of monotone maps P -> Q sending each e into `allowed[e]`.

    Walks the linear extension of P one element at a time and keeps a dict
    from state to the number of partial maps in that state.  A state holds
    one mask for each unassigned element with an assigned lower cover: its
    `allowed` mask (all of Q when None) met with the up-sets of those covers'
    images.  That mask is all a later level reads, so partial maps in equal
    states have equally many extensions and merging them is exact (a
    transfer matrix along the extension: Stanley, Enumerative Combinatorics
    I, 4.7); a state with an empty mask has none and is dropped.  An element
    with no upper cover only multiplies by the popcount of its mask.

    Every state a level produces, merged or not, costs one entry plus one
    per mask it holds; once the entries over all levels would pass
    COUNT_STATE_BOUND it raises BoundExceeded before building them, which
    bounds time and memory on any input.
    """
    qup = Q.up
    allow = [(1 << Q.size) - 1] * P.size if allowed is None else allowed
    frontier: list[int] = []  # the elements whose masks a state holds, in order
    states = {(): 1}
    built = 0
    for e in _linear_extension(P):
        at = frontier.index(e) if e in frontier else -1
        if at < 0 and not allow[e]:
            return 0
        ups = P.covers[e]
        # next layout: masks e leaves alone, then those of its upper covers
        # already held, then those of its other upper covers
        keep = [i for i, u in enumerate(frontier) if u != e and not ups >> u & 1]
        hit = [i for i, u in enumerate(frontier) if ups >> u & 1]
        fresh = [u for u in range(P.size) if ups >> u & 1 and u not in frontier]
        fresh_masks = [allow[u] for u in fresh]
        frontier = [frontier[i] for i in keep + hit] + fresh
        width = 1 + len(frontier)
        new: dict[tuple, int] = {}
        for state, cnt in states.items():
            cand = allow[e] if at < 0 else state[at]
            built += (cand.bit_count() if ups else 1) * width
            if built > COUNT_STATE_BOUND:
                raise BoundExceeded(
                    f"map count needs more than {COUNT_STATE_BOUND} state entries"
                )
            base = tuple([state[i] for i in keep])
            if ups:
                touched = [state[i] for i in hit] + fresh_masks
                while cand:
                    low = cand & -cand
                    cand ^= low
                    m = qup[low.bit_length() - 1]
                    part = tuple([x & m for x in touched])
                    if 0 not in part:
                        key = base + part
                        new[key] = new.get(key, 0) + cnt
            else:
                new[base] = new.get(base, 0) + cnt * cand.bit_count()
        states = new
    return states.get((), 0)


def enumerate_monotone_maps(P: Poset, Q: Poset) -> Iterator[MonotoneMap]:
    """Every monotone map P -> Q exactly once, in a deterministic order.

    Order is lexicographic in the image tuple read along the fixed linear
    extension of P.
    """
    for image in _map_search(P, Q):
        yield MonotoneMap(P, Q, image)


def count_monotone_maps(P: Poset, Q: Poset, workers: int = 1) -> int:
    """Number of monotone maps P -> Q, by `_map_count`; nothing is materialized.

    `workers` is ignored; it is kept only because bench/worker.py recounts
    each pair with workers=2.  Raises BoundExceeded past COUNT_STATE_BOUND
    state entries.
    """
    return _map_count(P, Q)


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
    image = next(_map_search(P, Q, allowed, injective=True), None)
    return None if image is None else MonotoneMap(P, Q, image)


# ---------------------------------------------------------------------------
# retract enumeration


def _retraction_masks(A: Poset, keep: list[int], B: Poset) -> list[int]:
    """Per-element masks over B = A|keep that every retraction A -> B obeys.

    A retraction r fixes every kept k, so k <= v gives k <= r(v) and v <= k
    gives r(v) <= k: each element v may only go to the intersection of
    up_B(k) over kept k <= v and down_B(k) over kept k >= v.  For a kept v
    this is its own position in B (k = v bounds it from both sides).  The
    masks drop only candidates that no retraction takes, so the monotone
    maps within them are exactly the retractions.
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
    return allowed


def enumerate_retracts(max_size: int) -> Iterator[Retract]:
    """All retract diagrams (A, B, r, s) with rs = id and |A| <= max_size.

    A runs over isomorphism-class representatives; B runs over all induced
    subposets of A (sections of poset retracts are order-embeddings, so every
    retract appears this way), r over all monotone retractions fixing B.
    """
    if max_size > RETRACT_SIZE_BOUND:
        raise BoundExceeded(f"retract enumeration capped at outer size {RETRACT_SIZE_BOUND}")
    for n in range(max_size + 1):
        for cp in enumerate_posets(n):
            A = cp.poset
            if n == 0:
                yield Retract(A, A, identity_map(A), identity_map(A))
                continue
            for mask in range(1, 1 << n):
                keep = [e for e in range(n) if mask >> e & 1]
                B, incl = induced_subposet(A, keep)
                for image in _map_search(A, B, _retraction_masks(A, keep, B)):
                    yield Retract(A, B, incl, MonotoneMap(A, B, image))
