"""Known answers for the benchmark, computed without importing posetcat.

Every function here is written from the definitions (or is a published
sequence), so a defect in posetcat cannot make its own results agree with
these.  Nothing in this module may import posetcat.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

# OEIS A000112: partially ordered sets on n unlabeled elements, n = 0..7.
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045)
# OEIS A006966: lattices on n unlabeled elements, n = 0..7.  posetcat treats
# the empty poset as not complete, so the benchmark compares n >= 1 only.
A006966 = (1, 1, 1, 1, 2, 5, 15, 53)
# Dedekind numbers D(n): monotone Boolean functions of n variables, n = 0..4.
DEDEKIND = (2, 3, 6, 20, 168)
# sha256 of the bytes `posetcat verify-all` (default arguments) writes to stdout.
VERIFY_ALL_SHA256 = "692f4f16eec2997b8db85f368ffc52b22da2bc73b1e98c1d0169f194fdd5150a"


@lru_cache(maxsize=None)
def monotone_boolean_functions(n: int) -> tuple[int, ...]:
    """Truth tables (bit x = value at vertex x) of the monotone maps [1]^n -> [1].

    A function of n variables is monotone iff its restrictions to the two
    halves x_{n-1} = 0 and x_{n-1} = 1 are monotone and the first lies below
    the second.  The truth table of a monotone function is the indicator of
    an up-set of the cube.
    """
    if n == 0:
        return (0b0, 0b1)
    half = monotone_boolean_functions(n - 1)
    shift = 1 << (n - 1)
    return tuple(a | b << shift for a in half for b in half if a & ~b == 0)


def cube_to_chain_count(n: int, k: int) -> int:
    """|Poset([1]^n, [k])|: chains U_1 >= ... >= U_k of up-sets of the cube.

    A monotone f: [1]^n -> [k] is determined by the nested up-sets
    U_j = f^-1({j, ..., k}), j = 1..k.
    """
    ups = monotone_boolean_functions(n)
    ways = {u: 1 for u in ups}
    for _ in range(k - 1):
        ways = {v: sum(w for u, w in ways.items() if v & ~u == 0) for v in ups}
    return sum(ways.values()) if k > 0 else 1


def cube_to_cube_count(n: int, k: int) -> int:
    """|Poset([1]^n, [1]^k)| = D(n)^k: one monotone Boolean function per coordinate."""
    return DEDEKIND[n] ** k


@lru_cache(maxsize=None)
def cube_idempotent_count(n: int) -> int:
    """Idempotent monotone endomorphisms of [1]^n, by filtering all of End([1]^n)."""
    fns = monotone_boolean_functions(n)
    size = 1 << n
    count = 0
    for coords in product(fns, repeat=n):
        g = [sum((coords[j] >> x & 1) << j for j in range(n)) for x in range(size)]
        if all(g[g[x]] == g[x] for x in range(size)):
            count += 1
    return count


def triangulation_cells(n: int, m: int) -> int:
    """Cells of the triangulated n-cube at level [m]: |Poset([m], [1]^n)| = (m+2)^n."""
    return (m + 2) ** n


def _chain_maps(m: int, n: int):
    """Every function [m] -> [n] that is monotone, by filtering all (n+1)^(m+1)."""
    for img in product(range(n + 1), repeat=m + 1):
        if all(img[i] <= img[i + 1] for i in range(m)):
            yield img


@lru_cache(maxsize=None)
def simplex_cells(n: int, m: int) -> int:
    """Cells of the representable n-simplex at level [m]."""
    return sum(1 for _ in _chain_maps(m, n))


@lru_cache(maxsize=None)
def horn_cells(n: int, I: frozenset, m: int) -> int:
    """Cells at level [m] of the union of the faces of the n-simplex indexed by I:
    monotone maps [m] -> [n] that miss some vertex i in I."""
    return sum(1 for img in _chain_maps(m, n) if any(i not in img for i in I))


def count_monotone(dom_up: list[int], cod_up: list[int]) -> int:
    """Monotone maps between posets given as up-set bitmasks (up[i] = {j : i <= j}).

    Plain backtracking in index order over all |Q| values per element, with
    the order test made against every earlier element in both directions.
    """
    n, q = len(dom_up), len(cod_up)
    img = [0] * n

    def rec(t: int) -> int:
        if t == n:
            return 1
        total = 0
        for v in range(q):
            ok = True
            for s in range(t):
                w = img[s]
                if dom_up[s] >> t & 1 and not cod_up[w] >> v & 1:
                    ok = False
                    break
                if dom_up[t] >> s & 1 and not cod_up[v] >> w & 1:
                    ok = False
                    break
            if ok:
                img[t] = v
                total += rec(t + 1)
        return total

    return rec(0)


def relabel(up: list[int], perm: list[int]) -> list[int]:
    """Up-set masks after renaming element i to perm[i]."""
    out = [0] * len(up)
    for i, row in enumerate(up):
        out[perm[i]] = sum(1 << perm[j] for j in range(len(up)) if row >> j & 1)
    return out


def is_isomorphism(dom_up: list[int], cod_up: list[int], image: list[int]) -> bool:
    """Whether `image` is a bijection with i <= j iff image[i] <= image[j]."""
    n = len(dom_up)
    if len(cod_up) != n or sorted(image) != list(range(n)):
        return False
    return all(
        (dom_up[i] >> j & 1) == (cod_up[image[i]] >> image[j] & 1)
        for i in range(n)
        for j in range(n)
    )


def is_retract_certificate(lat_up: list[int], section: list[int], retraction: list[int]) -> bool:
    """Down-set section s: L -> [1]^|L| and monotone retraction r with r.s = id."""
    n = len(lat_up)
    down = [sum(1 << i for i in range(n) if lat_up[i] >> c & 1) for c in range(n)]
    if section != down or len(retraction) != 1 << n:
        return False
    if any(retraction[section[c]] != c for c in range(n)):
        return False
    # monotone: flipping any coordinate of x from 0 to 1 cannot move r(x) down
    return all(
        lat_up[retraction[x]] >> retraction[x | 1 << b] & 1
        for x in range(1 << n)
        for b in range(n)
        if not x >> b & 1
    )
