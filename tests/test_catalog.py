import inspect
import json
import os
import random
import subprocess
import sys
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from posetcat import catalog, checks
from posetcat.errors import BoundExceeded
from posetcat.poset import (
    MonotoneMap,
    Poset,
    chain,
    identity_map,
    induced_subposet,
    interval_power,
    is_complete,
    validate_poset,
)

# isomorphism-class counts, confirmed against brute-force relation filtering below
POSET_CLASSES = {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}  # OEIS A000112
LATTICE_CLASSES = {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}  # OEIS A006966


def antichain(k):
    """k pairwise incomparable elements."""
    return Poset(k, tuple(1 << i for i in range(k)))


def brute_force_posets(n):
    """All partial orders on n labeled elements, by filtering every relation."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(offdiag)):
        up = [1 << i for i in range(n)]
        for s, (i, j) in enumerate(offdiag):
            if bits >> s & 1:
                up[i] |= 1 << j
        ok = True
        for i in range(n):
            for j in range(n):
                if not up[i] >> j & 1:
                    continue
                if i != j and up[j] >> i & 1:
                    ok = False
                    break
                if up[j] & ~up[i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(Poset(n, tuple(up)))
    return out


def natural_posets(n):
    """All posets on 0..n-1 whose index order is a linear extension.

    Element k is appended with a down-closed strict down-set among 0..k-1;
    every isomorphism class appears (at least once) this way.
    """
    if n == 0:
        yield Poset(0, ())
        return

    def rec(k, up, dn):
        if k == n:
            yield Poset(n, tuple(up))
            return
        bit = 1 << k
        for D in range(1 << k):
            if any(D >> i & 1 and dn[i] & ~D for i in range(k)):
                continue
            up2 = [row | bit if D >> i & 1 else row for i, row in enumerate(up)]
            yield from rec(k + 1, up2 + [bit], dn + [D | bit])

    yield from rec(0, [], [])


def reference_posets(n):
    """Canonicalize every naturally labelled n-poset, dedupe and sort by key."""
    seen = {}
    for P in natural_posets(n):
        cp = catalog.CanonicalPoset.canonicalize(P)
        seen.setdefault(cp.key, cp)
    return [seen[k] for k in sorted(seen)]


def relabel(P, perm):
    up = [0] * P.size
    for i in range(P.size):
        for j in range(P.size):
            if P.up[perm[i]] >> perm[j] & 1:
                up[i] |= 1 << j
    return Poset(P.size, tuple(up))


def reference_canonical_order(P):
    """The permutation search the back-to-front search replaced.

    Scores the full code sum(row[a] << (a * n)) of every ordering that sorts
    the invariants ascending and permutes each invariant block, and returns
    (key, order) for the least one.
    """
    n = P.size
    if n == 0:
        return bytes([0]), ()
    inv = catalog._refined_invariants(P)
    by_inv = sorted(range(n), key=lambda i: inv[i])
    blocks = [[by_inv[0]]]
    for i in by_inv[1:]:
        if inv[i] == inv[blocks[-1][-1]]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    best = []

    def rec(b, prefix):
        if b == len(blocks):
            code = 0
            for a, i in enumerate(prefix):
                for c, j in enumerate(prefix):
                    if P.up[i] >> j & 1:
                        code |= 1 << (a * n + c)
            if not best or code < best[0][0]:
                best[:] = [(code, tuple(prefix))]
            return
        for perm in permutations(blocks[b]):
            rec(b + 1, prefix + list(perm))

    rec(0, [])
    code, order = best[0]
    return bytes([n]) + code.to_bytes((n * n + 7) // 8, "big"), order


def test_published_tables_in_checks_match():
    # verify-all counts its enumerations against these tables
    assert checks.A000112 == POSET_CLASSES
    assert checks.A006966 == {n: c for n, c in LATTICE_CLASSES.items() if n > 0}


class TestEnumeratePosets:
    @pytest.mark.parametrize("n,expect", sorted(POSET_CLASSES.items()))
    def test_class_counts(self, n, expect):
        assert len(catalog.enumerate_posets(n)) == expect

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_against_brute_force(self, n):
        labeled = brute_force_posets(n)
        keys = {catalog.canonical_key(P) for P in labeled}
        reps = catalog.enumerate_posets(n)
        assert len(reps) == len(keys)
        # representative labeled count: every labeled poset hits a known key
        assert keys == {cp.key for cp in reps}

    @pytest.mark.parametrize("n", range(7))
    def test_equals_canonicalizing_natural_labelings(self, n):
        reference = reference_posets(n)
        reps = catalog.enumerate_posets(n)
        assert [cp.key for cp in reps] == [cp.key for cp in reference]
        assert [cp.poset for cp in reps] == [cp.poset for cp in reference]

    def test_sorted_and_deduplicated(self):
        reps = catalog.enumerate_posets(4)
        keys = [cp.key for cp in reps]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            catalog.enumerate_posets(8)


class TestEnumerateLattices:
    @pytest.mark.parametrize("n,expect", sorted(LATTICE_CLASSES.items()))
    def test_class_counts(self, n, expect):
        assert len(catalog.enumerate_lattices(n)) == expect

    @pytest.mark.parametrize("n", range(7))
    def test_equals_filtering_all_posets(self, n):
        reference = tuple(
            cp for cp in catalog.enumerate_posets(n) if is_complete(cp.poset)
        )
        lattices = catalog.enumerate_lattices(n)
        assert [cp.key for cp in lattices] == [cp.key for cp in reference]
        assert [cp.poset for cp in lattices] == [cp.poset for cp in reference]

    def test_empty(self):
        assert catalog.enumerate_lattices(0) == ()

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            catalog.enumerate_lattices(8)

    def test_asks_only_for_posets_of_size_n_minus_2(self, monkeypatch):
        asked = []
        real = catalog.enumerate_posets
        # the recursion goes through the module attribute, so the sizes
        # below 5 must already be cached for the patch to see only [5]
        real(5)

        def recording(n, *args, **kwargs):
            asked.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(catalog, "enumerate_posets", recording)
        catalog.enumerate_lattices.cache_clear()
        catalog.enumerate_lattices(7)
        assert asked == [5]

    def test_sublist_of_posets(self):
        poset_keys = {cp.key for cp in catalog.enumerate_posets(4)}
        for cp in catalog.enumerate_lattices(4):
            assert cp.key in poset_keys and is_complete(cp.poset)

    def test_size_four_shapes(self):
        reps = catalog.enumerate_lattices(4)
        shapes = {
            catalog.canonical_key(chain(3)),
            catalog.canonical_key(validate_poset({(0, 1), (0, 2), (1, 3), (2, 3)}, 4)),
        }
        assert {cp.key for cp in reps} == shapes


class TestCanonicalKey:
    def test_equal_iff_isomorphic_small(self):
        reps = [cp.poset for cp in catalog.enumerate_posets(3)]
        for P, Q in product(reps, reps):
            same = catalog.canonical_key(P) == catalog.canonical_key(Q)
            assert same == (catalog.find_isomorphism(P, Q) is not None)

    @given(st.integers(0, 1000), st.integers(2, 5))
    @settings(max_examples=60)
    def test_relabeling_invariance(self, seed, size):
        rng = random.Random(seed)
        reps = catalog.enumerate_posets(size)
        P = reps[rng.randrange(len(reps))].poset
        perm = list(range(size))
        rng.shuffle(perm)
        assert catalog.canonical_key(relabel(P, perm)) == catalog.canonical_key(P)

    def test_representative_is_self_canonical(self):
        for cp in catalog.enumerate_posets(4):
            again = catalog.CanonicalPoset.canonicalize(cp.poset)
            assert again.key == cp.key and again.poset == cp.poset

    @staticmethod
    def assert_matches_reference(P):
        key, order = reference_canonical_order(P)
        cp = catalog.CanonicalPoset.canonicalize(P)
        assert catalog.canonical_key(P) == key and cp.key == key
        assert cp.poset == relabel(P, order)

    def test_equals_permutation_search_on_small_posets(self):
        rng = random.Random(18)
        for n in range(7):
            for cp in catalog.enumerate_posets(n):
                for _ in range(2):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    self.assert_matches_reference(relabel(cp.poset, perm))

    def test_equals_permutation_search_on_cube_subposets(self):
        # up to 12 of the 16 vertices of [1]^4: blocks stay small enough for
        # the reference, and the symmetric ones keep many ties alive
        rng = random.Random(4)
        cube = interval_power(4)
        for _ in range(300):
            vertices = rng.sample(range(16), rng.randint(0, 12))
            P = induced_subposet(cube, vertices)[0]
            perm = list(range(P.size))
            rng.shuffle(perm)
            self.assert_matches_reference(relabel(P, perm))

    def test_full_cube_key_is_pinned(self):
        # the key of [1]^4, as the permutation search computed it over
        # 4! * 6! * 4! = 414,720 orderings
        assert catalog.canonical_key(interval_power(4)).hex() == (
            "108000c000a000900088009c00aa00b100c880d040e020bf10dcc8eaa4f162ffff"
        )


class TestMonotoneMapCounts:
    def test_arrow_endos(self):
        assert catalog.count_monotone_maps(chain(1), chain(1)) == 3

    def test_square_to_arrow(self):
        assert catalog.count_monotone_maps(interval_power(2), chain(1)) == 6

    @pytest.mark.parametrize("m", range(0, 7))
    def test_threshold_counts(self, m):
        assert catalog.count_monotone_maps(chain(m), chain(1)) == m + 2

    # OEIS A000372: monotone Boolean functions of n variables
    @pytest.mark.parametrize("n,expect", [(0, 2), (1, 3), (2, 6), (3, 20), (4, 168), (5, 7581)])
    def test_free_distributive_lattice_counts(self, n, expect):
        assert catalog.count_monotone_maps(interval_power(n), chain(1)) == expect

    def test_antichain_domain_counts(self):
        for p, q in product(range(4), range(1, 4)):
            P, Q = antichain(p), chain(q - 1)
            assert catalog.count_monotone_maps(P, Q) == q ** p
        assert catalog.count_monotone_maps(antichain(40), chain(1)) == 1 << 40

    def test_product_decomposition(self):
        for m, n in product(range(4), range(4)):
            assert (
                catalog.count_monotone_maps(chain(m), interval_power(n))
                == (m + 2) ** n
            )

    def test_count_matches_enumeration_all_size_four(self):
        reps = [cp.poset for s in range(0, 5) for cp in catalog.enumerate_posets(s)]
        for P, Q in product(reps, reps):
            ms = list(catalog.enumerate_monotone_maps(P, Q))
            assert len(ms) == catalog.count_monotone_maps(P, Q)
            assert len({f.image for f in ms}) == len(ms)

    def test_empty_domain(self):
        assert catalog.count_monotone_maps(Poset(0, ()), chain(1)) == 1
        assert catalog.count_monotone_maps(chain(1), Poset(0, ())) == 0


def root_pinned(P, Q, q0):
    """Allowed masks that pin the first element of P's extension to q0."""
    allowed = [(1 << Q.size) - 1] * P.size
    if P.size:
        allowed[catalog._linear_extension(P)[0]] = 1 << q0
    return allowed


def recursive_search(P, Q, emit, root_filter=None):
    """The recursive search that the flat loop of _map_search replaced."""
    n = P.size
    if n == 0:
        yield () if emit else 1
        return
    order = catalog._linear_extension(P)
    preds = [[p for p in order if P.down[e] >> p & 1 and p != e] for e in order]
    full = (1 << Q.size) - 1
    img = [0] * n

    def rec(t):
        if t == n:
            yield tuple(img) if emit else 1
            return
        m = full
        for p in preds[t]:
            m &= Q.up[img[p]]
        while m:
            img[order[t]] = (m & -m).bit_length() - 1
            m &= m - 1
            yield from rec(t + 1)

    for q0 in range(Q.size) if root_filter is None else root_filter:
        img[order[0]] = q0
        if emit:
            yield from rec(1)
        else:
            yield sum(rec(1))


# each pair is built when a test asks for it, so that an enumeration defect
# fails the tests that use the pair, not the collection of this file
SEARCH_PAIRS = {
    "cube3-to-square": lambda: (interval_power(3), interval_power(2)),
    "six-to-lattice7": lambda: (
        catalog.enumerate_posets(6)[150].poset,
        catalog.enumerate_lattices(7)[30].poset,
    ),
    "point-domain": lambda: (chain(0), chain(3)),
    "empty-domain": lambda: (Poset(0, ()), chain(1)),
    "empty-codomain": lambda: (interval_power(2), Poset(0, ())),
    "antichain-domain": lambda: (antichain(3), interval_power(2)),
}


class TestSearchOrder:
    @pytest.mark.parametrize("name", sorted(SEARCH_PAIRS))
    def test_images_and_root_counts_match_recursive_search(self, name):
        P, Q = SEARCH_PAIRS[name]()
        images = list(catalog._map_search(P, Q))
        assert images == list(recursive_search(P, Q, emit=True))
        assert catalog._map_count(P, Q) == sum(recursive_search(P, Q, emit=False))
        for q0 in range(Q.size):
            allowed = root_pinned(P, Q, q0)
            assert list(catalog._map_search(P, Q, allowed=allowed)) == list(
                recursive_search(P, Q, emit=True, root_filter=[q0])
            )
            assert [catalog._map_count(P, Q, allowed)] == list(
                recursive_search(P, Q, emit=False, root_filter=[q0])
            )

    @pytest.mark.parametrize("name", sorted(SEARCH_PAIRS))
    def test_count_equals_stream_length(self, name):
        P, Q = SEARCH_PAIRS[name]()
        stream = [f.image for f in catalog.enumerate_monotone_maps(P, Q)]
        assert catalog.count_monotone_maps(P, Q) == len(stream)
        assert catalog.count_monotone_maps(P, Q, workers=2) == len(stream)
        assert [f.image for f in catalog.monotone_maps(P, Q)] == stream

    def test_pairs_are_nontrivial(self):
        P, L = SEARCH_PAIRS["six-to-lattice7"]()
        assert P.size == 6 and L.size == 7 and is_complete(L)
        assert catalog.count_monotone_maps(P, L) > 100
        assert catalog.count_monotone_maps(*SEARCH_PAIRS["empty-codomain"]()) == 0


def with_bad_outer(real, P):
    """`real`, the search behind P's hom-set stream, with its middle image
    repeated and broken on the last cover edge (i, j) of P between two outer
    elements: i to the top of the chain Q and j to its bottom."""
    free = catalog._antichain_split(P)[0]
    outer = [e for e in range(P.size) if e not in free]
    i, j = [(i, j) for i, j in P.cover_edges if i in outer and j in outer][-1]

    def images(R, Q):
        found = list(real(R, Q))
        mid = len(found) // 2
        bad = list(found[mid])
        bad[outer.index(i)], bad[outer.index(j)] = Q.size - 1, 0
        yield from found[:mid] + [tuple(bad)] + found[mid:]

    return images


def maps_before_the_bad_image(mutant, P, Q):
    """The maps of P -> Q that extend an image before the one `mutant` breaks."""
    free, R = catalog._antichain_split(P)
    real = list(catalog._map_search(R, Q))
    broken = list(mutant(lambda R, Q: iter(real), P)(R, Q))
    bad = next(b for b, (x, y) in enumerate(zip(real, broken)) if x != y)
    before = set(real[:bad])
    return sum(
        1
        for f in catalog.enumerate_monotone_maps(P, Q)
        if tuple(v for e, v in enumerate(f.image) if e not in free) in before
    )


MUTANTS_UNDER_O = "".join(
    inspect.getsource(f) for f in (with_bad_outer, maps_before_the_bad_image)
) + """
import json, sys
from posetcat import catalog
from posetcat.poset import chain, interval_power
P, Q = interval_power(3), chain(2)
before = maps_before_the_bad_image(with_bad_outer, P, Q)
catalog._map_search = with_bad_outer(catalog._map_search, P)
catalog.monotone_maps.cache_clear()
maps = []
try:
    for f in catalog.enumerate_monotone_maps(P, Q):
        maps.append(f)
except ValueError as exc:
    streamed = str(exc)
try:
    catalog.monotone_maps(P, Q)
except ValueError as exc:
    cached = str(exc)
raised = [before, len(maps), streamed, cached]
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised}))
"""


def documented_order(P, free):
    """Sort key of the stream order: the image read along a linear extension
    of P without `free` (down-set size there, then index), then along
    `free`."""
    outer = [e for e in range(P.size) if e not in free]
    below = {e: sum(1 for d in outer if P.leq(d, e)) for e in outer}
    along = sorted(outer, key=lambda e: (below[e], e)) + sorted(free)
    return lambda image: [image[e] for e in along]


class TestCheckedStream:
    """Every streamed map is checked, whatever the block producer yields."""

    def test_cube4_to_chain3_streams_the_search_set_in_block_order(self):
        P, Q = interval_power(4), chain(3)
        stream = [f.image for f in catalog.enumerate_monotone_maps(P, Q)]
        assert len(stream) == len(set(stream)) == 160948
        assert set(stream) == set(catalog._map_search(P, Q))
        rank2 = [x for x in range(P.size) if x.bit_count() == 2]
        assert stream == sorted(stream, key=documented_order(P, rank2))

    def test_cube4_to_chain3_is_4243_blocks_over_the_rank2_vertices(self):
        # any labelling of [1]^4: its six rank-2 vertices are the widest level
        P = interval_power(4)
        perm = list(range(P.size))
        random.Random(29).shuffle(perm)
        # element a of relabel(P, perm) is the vertex perm[a]
        for D, vertex in ((P, list(range(P.size))), (relabel(P, perm), perm)):
            free, R = catalog._antichain_split(D)
            assert sorted(vertex[a].bit_count() for a in free) == [2] * 6
            assert list(free) == sorted(free)
            assert sum(1 for _ in catalog._map_search(R, chain(3))) == 4243
            assert catalog.count_monotone_maps(D, chain(3)) == 160948

    @pytest.mark.parametrize("m", range(6))
    def test_chain_domains_stream_in_search_order(self, m):
        # a chain's widest level is its top, so the blocks read the search's order
        P = chain(m)
        assert catalog._antichain_split(P)[0] == (m,)
        for Q in [chain(k) for k in range(6)] + [interval_power(k) for k in range(5)]:
            stream = [f.image for f in catalog.enumerate_monotone_maps(P, Q)]
            assert stream == list(catalog._map_search(P, Q))

    @pytest.mark.parametrize("name", sorted(SEARCH_PAIRS))
    def test_stream_is_the_search_set_in_block_order(self, name):
        P, Q = SEARCH_PAIRS[name]()
        stream = [f.image for f in catalog.enumerate_monotone_maps(P, Q)]
        assert len(stream) == len(set(stream))
        assert set(stream) == set(catalog._map_search(P, Q))
        assert stream == sorted(stream, key=documented_order(P, catalog._antichain_split(P)[0]))

    def test_bad_image_mid_stream_raises(self, monkeypatch):
        P, Q = interval_power(3), chain(2)
        real = catalog._map_search
        before = maps_before_the_bad_image(with_bad_outer, P, Q)
        assert before > 0
        monkeypatch.setattr(catalog, "_map_search", with_bad_outer(real, P))
        catalog.monotone_maps.cache_clear()
        maps = []
        with pytest.raises(ValueError, match="not monotone on "):
            for f in catalog.enumerate_monotone_maps(P, Q):
                maps.append(f)
        assert len(maps) == before
        with pytest.raises(ValueError, match="not monotone on "):
            catalog.monotone_maps(P, Q)

    def test_bad_image_mid_stream_raises_under_python_O(self):
        src = os.path.dirname(os.path.dirname(catalog.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", MUTANTS_UNDER_O],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["optimize"] == 1
        before, yielded, streamed, cached = out["raised"]
        assert 0 < before == yielded
        assert streamed.startswith("not monotone on ") and cached.startswith("not monotone on ")


class TestEnumerationDeterminism:
    # no thread pool, and no `dataclasses` or the `inspect` it pulls in, in
    # what a CLI launch loads
    @pytest.mark.parametrize("module", ["concurrent.futures", "dataclasses", "inspect"])
    def test_import_does_not_load(self, module):
        src = os.path.dirname(os.path.dirname(catalog.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, posetcat.cli; print({module!r} in sys.modules)"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_dedekind_4_count_equals_stream_length(self):
        # `_map_count` merges states; the stream walks `_map_search` leaf by leaf
        P = interval_power(4)
        count = catalog.count_monotone_maps(P, chain(1))
        assert count == 168
        assert count == sum(1 for _ in catalog.enumerate_monotone_maps(P, chain(1)))


def recursive_find_isomorphism(P, Q):
    """The backtracking isomorphism search that _map_search replaced."""
    n = P.size
    if n != Q.size:
        return None
    inv_p = [(P.down[i].bit_count(), P.up[i].bit_count()) for i in range(n)]
    inv_q = [(Q.down[i].bit_count(), Q.up[i].bit_count()) for i in range(n)]
    if sorted(inv_p) != sorted(inv_q):
        return None
    order = catalog._linear_extension(P)
    img = [-1] * n

    def rec(t, used):
        if t == n:
            return True
        e = order[t]
        for q in range(n):
            if used >> q & 1 or inv_p[e] != inv_q[q]:
                continue
            ok = True
            for e2 in order[:t]:
                q2 = img[e2]
                if (P.up[e] >> e2 & 1) != (Q.up[q] >> q2 & 1):
                    ok = False
                    break
                if (P.up[e2] >> e & 1) != (Q.up[q2] >> q & 1):
                    ok = False
                    break
            if not ok:
                continue
            img[e] = q
            if rec(t + 1, used | 1 << q):
                return True
            img[e] = -1
        return False

    return tuple(img) if rec(0, 0) else None


def assert_isomorphism(iso, P, Q):
    assert iso is not None and sorted(iso.image) == list(range(Q.size))
    inv = [0] * P.size
    for i, v in enumerate(iso.image):
        inv[v] = i
    MonotoneMap(Q, P, tuple(inv))  # raises if not monotone


class TestFindIsomorphism:
    def test_equals_recursive_search_on_posets_to_five(self):
        rng = random.Random(2024)
        reps = [cp.poset for n in range(6) for cp in catalog.enumerate_posets(n)]
        checked = 0
        for P, Q in product(reps, reps):
            perm_p, perm_q = list(range(P.size)), list(range(Q.size))
            rng.shuffle(perm_p)
            rng.shuffle(perm_q)
            Q2 = relabel(Q, perm_q)
            for A in (P, relabel(P, perm_p)):
                iso = catalog.find_isomorphism(A, Q2)
                expect = recursive_find_isomorphism(A, Q2)
                assert (None if iso is None else iso.image) == expect
                checked += expect is not None
        assert checked == 2 * sum(len(catalog.enumerate_posets(n)) for n in range(6))

    def test_wide_antichain_and_five_cube(self):
        A = antichain(12)
        assert_isomorphism(catalog.find_isomorphism(A, A), A, A)
        cube5 = interval_power(5)
        shuffled = relabel(cube5, random.Random(5).sample(range(32), 32))
        assert_isomorphism(catalog.find_isomorphism(cube5, shuffled), cube5, shuffled)

    def test_power_one_is_arrow(self):
        iso = catalog.find_isomorphism(interval_power(1), chain(1))
        assert iso is not None and iso.image == (0, 1)

    def test_sorted_vertices_make_a_chain(self):
        sq = interval_power(2)
        sub, _ = induced_subposet(sq, [0, 2, 3])
        iso = catalog.find_isomorphism(chain(2), sub)
        assert iso is not None

    def test_chain_vs_antichain(self):
        assert catalog.find_isomorphism(chain(2), antichain(3)) is None

    def test_inverse_is_monotone(self):
        reps = [cp.poset for cp in catalog.enumerate_posets(4)]
        for P in reps:
            perm = list(reversed(range(P.size)))
            Q = relabel(P, perm)
            iso = catalog.find_isomorphism(P, Q)
            assert iso is not None
            inv = [0] * P.size
            for i, v in enumerate(iso.image):
                inv[v] = i
            MonotoneMap(Q, P, tuple(inv))  # raises if not monotone


def recursive_retractions_onto(A, keep, B):
    """The recursive retraction search that _map_search replaced."""
    n = A.size
    pos = {e: i for i, e in enumerate(keep)}
    order = catalog._linear_extension(A)
    full = (1 << B.size) - 1
    img = [0] * n

    def rec(t):
        if t == n:
            yield tuple(img)
            return
        e = order[t]
        c = full
        for p in order[:t]:
            if A.down[e] >> p & 1:
                c &= B.up[img[p]]
        if e in pos:
            if not c >> pos[e] & 1:
                return
            img[e] = pos[e]
            yield from rec(t + 1)
            return
        m = c
        while m:
            q = (m & -m).bit_length() - 1
            m &= m - 1
            img[e] = q
            yield from rec(t + 1)

    yield from rec(0)


def reference_retracts(max_size):
    """(outer, inner, section, retraction) images as the enumerator gave them
    when it built the inner poset anew, by induced_subposet, for every keep set."""
    for n in range(max_size + 1):
        for cp in catalog.enumerate_posets(n):
            A = cp.poset
            if n == 0:
                yield A, A, (), ()
                continue
            for mask in range(1, 1 << n):
                keep = [e for e in range(n) if mask >> e & 1]
                B, incl = induced_subposet(A, keep)
                for image in catalog._map_search(A, B, catalog._retraction_masks(A, keep, B)):
                    yield A, B, incl.image, MonotoneMap(A, B, image).image


class TestEnumerateRetracts:
    @pytest.mark.parametrize("m", range(6))
    def test_equals_the_reference_enumerator(self, m):
        got = [
            (r.outer, r.inner, r.section.image, r.retraction.image)
            for r in catalog.enumerate_retracts(m)
        ]
        assert got == list(reference_retracts(m))

    def test_each_inner_poset_is_built_once(self):
        rets = list(catalog.enumerate_retracts(5))
        assert len(rets) == 4722
        inner_ids = {id(r.inner) for r in rets}
        assert len(inner_ids) == len({r.inner for r in rets}) == 104

    def test_retractions_equal_recursive_search(self):
        cases = 0
        for n in range(1, 5):
            for cp in catalog.enumerate_posets(n):
                A = cp.poset
                for mask in range(1, 1 << n):
                    keep = [e for e in range(n) if mask >> e & 1]
                    B, _ = induced_subposet(A, keep)
                    expected = list(recursive_retractions_onto(A, keep, B))
                    masks = catalog._retraction_masks(A, keep, B)
                    assert list(catalog._map_search(A, B, masks)) == expected
                    assert catalog._map_count(A, B, masks) == len(expected)
                    cases += 1
        assert cases == 282

    def test_walking_arrow_retracts(self):
        rets = [r for r in catalog.enumerate_retracts(2) if r.outer == chain(1)]
        assert len(rets) == 3
        assert sum(1 for r in rets if r.inner.size == 1) == 2
        assert sum(1 for r in rets if r.retraction == identity_map(r.outer)) == 1

    def test_identity_retract_always_present(self):
        for n in range(0, 4):
            for cp in catalog.enumerate_posets(n):
                found = any(
                    r.outer == cp.poset
                    and r.inner == cp.poset
                    and r.retraction == identity_map(cp.poset)
                    for r in catalog.enumerate_retracts(n)
                )
                assert found, cp.poset

    def test_no_chain_retract_of_antichain(self):
        for r in catalog.enumerate_retracts(2):
            if r.outer == antichain(2):
                assert catalog.find_isomorphism(r.inner, chain(1)) is None

    def test_stream_is_deterministic(self):
        first = [
            (r.outer, r.inner, r.section.image, r.retraction.image)
            for r in catalog.enumerate_retracts(3)
        ]
        second = [
            (r.outer, r.inner, r.section.image, r.retraction.image)
            for r in catalog.enumerate_retracts(3)
        ]
        assert first == second
        assert len(set(first)) == len(first)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            next(catalog.enumerate_retracts(6))


def disjoint_arrows(k):
    """k disjoint copies of [1]: element i is covered by element k + i."""
    lows = [1 << i | 1 << (k + i) for i in range(k)]
    return Poset(2 * k, tuple(lows + [1 << (k + i) for i in range(k)]))


# An antichain keeps one empty state per level, one entry each, so a bound of
# 40 admits the 40-element antichain and 39 does not; also under python -O.
STATE_BOUND_UNDER_O = """
import sys
from posetcat import catalog
from posetcat.errors import BoundExceeded
from posetcat.poset import Poset, chain
antichain = Poset(40, tuple(1 << i for i in range(40)))
catalog.COUNT_STATE_BOUND = 40
print(catalog.count_monotone_maps(antichain, chain(1)))
catalog.COUNT_STATE_BOUND = 39
try:
    catalog.count_monotone_maps(antichain, chain(1))
except BoundExceeded as exc:
    print(exc)
print(sys.flags.optimize)
"""


class TestMapCount:
    def test_state_bound_is_exact_under_python_O(self):
        src = os.path.dirname(os.path.dirname(catalog.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", STATE_BOUND_UNDER_O],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            str(1 << 40), "map count needs more than 39 state entries", "1"
        ]

    def test_default_state_bound_raises(self):
        # after the five minimal elements: 16**5 states of five masks each
        with pytest.raises(BoundExceeded):
            catalog.count_monotone_maps(disjoint_arrows(5), chain(15))
        assert catalog.count_monotone_maps(disjoint_arrows(2), chain(15)) == 136 ** 2
