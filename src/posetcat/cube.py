"""Named maps of the cube category, as monotone maps between cubes.

The cubes with connections are the full subcategory of posets on the
[1]^n, so a cube map [1]^m -> [1]^n is a `MonotoneMap` between
`interval_power`s.  Each constructor builds its map from a formula on
vertices (little-endian bit-vectors, bit k = coordinate k); compose them with
`poset.compose` and compare them with `poset.identity_map`.
"""

from __future__ import annotations

from .poset import MonotoneMap, interval_power


def _cube_map(m: int, n: int, vertex) -> MonotoneMap:
    """[1]^m -> [1]^n sending each vertex x to vertex(x)."""
    return MonotoneMap(interval_power(m), interval_power(n), tuple(map(vertex, range(1 << m))))


def face(n: int, i: int, eps: int) -> MonotoneMap:
    """[1]^(n-1) -> [1]^n inserting the constant eps at slot i."""
    if not 0 <= i < n:
        raise IndexError(f"face slot {i} out of range for dimension {n}")
    low = (1 << i) - 1
    bit = 1 << i if eps else 0
    return _cube_map(n - 1, n, lambda x: x & low | bit | (x & ~low) << 1)


def degeneracy(n: int, i: int) -> MonotoneMap:
    """[1]^n -> [1]^(n-1) dropping slot i."""
    if not 0 <= i < n:
        raise IndexError(f"degeneracy slot {i} out of range for dimension {n}")
    low = (1 << i) - 1
    return _cube_map(n, n - 1, lambda x: x & low | x >> 1 & ~low)


def connection(n: int, i: int, kind: str = "meet") -> MonotoneMap:
    """[1]^(n+1) -> [1]^n merging slots i, i+1 by meet or join."""
    if not 0 <= i < n:
        raise IndexError(f"connection slot {i} out of range for dimension {n}")
    if kind not in ("meet", "join"):
        raise ValueError("connection kind must be 'meet' or 'join'")
    low = (1 << i) - 1
    pair = 3 << i
    hit = (lambda x: x & pair == pair) if kind == "meet" else (lambda x: x & pair != 0)
    return _cube_map(n + 1, n, lambda x: x & low | hit(x) << i | x >> (i + 2) << (i + 1))


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
