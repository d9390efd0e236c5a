"""Named maps of the cube category, as monotone maps between cubes.

The cubes with connections are the full subcategory of posets on the
[1]^n, so a cube map [1]^m -> [1]^n is a `MonotoneMap` between
`interval_power`s.  Each constructor builds its map from a formula on
vertices (little-endian bit-vectors, bit k = coordinate k); compose them with
`poset.compose` and compare them with `poset.identity_map`.  The faces,
degeneracies and connections, which no check uses, are built the same way
in the tests.
"""

from __future__ import annotations

from .poset import MonotoneMap, interval_power


def _cube_map(m: int, n: int, vertex) -> MonotoneMap:
    """[1]^m -> [1]^n sending each vertex x to vertex(x)."""
    return MonotoneMap(interval_power(m), interval_power(n), tuple(map(vertex, range(1 << m))))


def symmetry(perm: tuple[int, ...]) -> MonotoneMap:
    """Coordinate permutation: output coordinate k reads input coordinate perm[k]."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise IndexError("not a permutation")
    return _cube_map(n, n, lambda x: sum((x >> p & 1) << k for k, p in enumerate(perm)))


def sort_endomorphism(m: int) -> MonotoneMap:
    """Reorders each vertex's coordinates ascending.

    Output coordinate k is 1 iff at least m-k input coordinates are 1.
    """
    return _cube_map(m, m, lambda x: sum(1 << k for k in range(m) if x.bit_count() >= m - k))
