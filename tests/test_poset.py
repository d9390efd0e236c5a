import os
import subprocess
import sys
from functools import lru_cache
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

import posetcat
from posetcat.errors import (
    BoundExceeded,
    CycleError,
    DomainMismatch,
    InvariantViolation,
    NotComplete,
    SchemaError,
)
from posetcat.catalog import enumerate_posets, monotone_maps
from posetcat.karoubi import Idempotent, retract_certificate
from posetcat.poset import (
    JSON_POSET_BOUND,
    MonotoneMap,
    Poset,
    Retract,
    chain,
    checked_maps,
    compose,
    identity_map,
    interval_power,
    is_complete,
    join,
    limit_via_retract,
    meet,
    poset_from_json,
    poset_to_json,
    product,
    terminal,
    validate_poset,
)


def antichain(k):
    """k pairwise incomparable elements."""
    return Poset(k, tuple(1 << i for i in range(k)))


def vee():
    # a < c, b < c
    return validate_poset({(0, 2), (1, 2)}, 3)


def diamond():
    return validate_poset({(0, 1), (0, 2), (1, 3), (2, 3)}, 4)


class TestValidatePoset:
    def test_singleton(self):
        P = validate_poset(set(), 1)
        assert P.size == 1 and P.leq(0, 0)

    def test_walking_arrow(self):
        P = validate_poset({(0, 1)}, 2)
        assert P == chain(1)
        assert P.leq(0, 1) and not P.leq(1, 0)

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            validate_poset({(0, 1), (1, 0)}, 2)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            validate_poset({(0, 5)}, 2)

    def test_transitive_closure_applied(self):
        P = validate_poset({(0, 1), (1, 2)}, 3)
        assert P.leq(0, 2)
        assert P == chain(2)

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleError):
            validate_poset({(0, 1), (1, 2), (2, 0)}, 3)


class TestPosetConstruction:
    @pytest.mark.parametrize(
        "size, up, match",
        [
            (2, (3,), "one row per element"),
            (2, (3, 6), "out of range"),
            (2, (2, 2), "not reflexive at 0"),
            (3, (3, 6, 4), r"not transitive through \(0,1\)"),
        ],
    )
    def test_each_law_is_checked(self, size, up, match):
        with pytest.raises(ValueError, match=match):
            Poset(size, up)

    def test_negative_chain_and_cube_rejected(self):
        with pytest.raises(ValueError, match="chain length must be >= 0"):
            chain(-1)
        with pytest.raises(ValueError, match="dimension must be >= 0"):
            interval_power(-1)


class TestCompose:
    def test_identity_laws(self):
        P, Q = chain(1), chain(2)
        for f in [MonotoneMap(P, Q, (0, 2)), MonotoneMap(P, Q, (1, 1))]:
            assert compose(f, identity_map(P)) == f
            assert compose(identity_map(Q), f) == f

    def test_retraction_section_is_identity(self):
        sq = interval_power(2)
        s = MonotoneMap(chain(1), sq, (0, 3))
        r = MonotoneMap(sq, chain(1), (0, 0, 1, 1))
        assert compose(r, s) == identity_map(chain(1))

    def test_constants_absorb(self):
        c0 = MonotoneMap(chain(1), chain(1), (0, 0))
        c1 = MonotoneMap(chain(1), chain(1), (1, 1))
        assert compose(c0, c1) == c0

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            compose(identity_map(chain(1)), identity_map(chain(2)))

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            MonotoneMap(chain(1), chain(1), (1, 0))


def monotone_on_all_pairs(P, Q, image):
    """Reference check: every value in range and f(i) <= f(j) for all i <= j."""
    if len(image) != P.size or any(not 0 <= v < Q.size for v in image):
        return False
    return all(
        Q.leq(image[i], image[j])
        for i in range(P.size)
        for j in range(P.size)
        if P.leq(i, j)
    )


def accepted(P, Q, image):
    try:
        MonotoneMap(P, Q, image)
    except ValueError:
        return False
    return True


@lru_cache(maxsize=None)
def posets_to_five():
    """Every poset up to five elements, built at test time so that an
    enumeration defect fails the tests that use it, not the collection."""
    return tuple(cp.poset for n in range(6) for cp in enumerate_posets(n))


class TestCoverCheck:
    """MonotoneMap checks covering pairs only; it must agree with all pairs."""

    @given(st.data())
    @settings(max_examples=400)
    def test_accepts_exactly_the_monotone_tuples(self, data):
        P = data.draw(st.sampled_from(posets_to_five()))
        Q = data.draw(st.sampled_from(posets_to_five()))
        values = st.integers(-1, Q.size)
        homs = monotone_maps(P, Q)
        if P.size and homs and data.draw(st.booleans()):
            # a monotone map with one value replaced: mostly near misses
            image = list(data.draw(st.sampled_from(homs)).image)
            image[data.draw(st.integers(0, P.size - 1))] = data.draw(values)
        else:
            image = data.draw(st.lists(values, min_size=P.size, max_size=P.size))
        image = tuple(image)
        assert accepted(P, Q, image) == monotone_on_all_pairs(P, Q, image)

    def test_exhaustive_to_three_elements(self):
        posets = [P for P in posets_to_five() if P.size <= 3]
        for P in posets:
            for Q in posets:
                for image in iproduct(range(-1, Q.size + 1), repeat=P.size):
                    assert accepted(P, Q, image) == monotone_on_all_pairs(P, Q, image)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            MonotoneMap(chain(1), chain(1), (0,))

    def test_cover_edges_of_the_cube(self):
        cube = interval_power(3)
        assert len(cube.cover_edges) == 12
        assert repr(cube) == f"Poset(size=8, covers={list(cube.cover_edges)})"
        for i, j in cube.cover_edges:
            assert (i ^ j).bit_count() == 1 and i < j

    @pytest.mark.parametrize("edge", interval_power(3).cover_edges)
    def test_breaking_one_cover_is_rejected(self, edge):
        cube = interval_power(3)
        i, j = edge
        up = list(cube.up)
        up[i] &= ~(1 << j)
        # nothing lies strictly between i and j, so the rest stays transitive
        broken = Poset(cube.size, tuple(up))
        lost = [
            (a, b) for a in range(cube.size) for b in range(cube.size)
            if cube.leq(a, b) and not broken.leq(a, b)
        ]
        assert lost == [edge]
        with pytest.raises(ValueError, match=f"not monotone on {i} <= {j}"):
            MonotoneMap(cube, broken, tuple(range(cube.size)))


def checked_prefix(P, Q, images, free=()):
    """The maps checked_maps yields, and whether it then raised ValueError."""
    maps = []
    try:
        for f in checked_maps(P, Q, images, free):
            maps.append(f)
    except ValueError:
        return maps, True
    return maps, False


def brute_cover_edges(P):
    """The pairs i < j of P with nothing strictly between, by brute force."""
    return [
        (i, j)
        for i in range(P.size)
        for j in range(P.size)
        if i != j and P.leq(i, j)
        and not any(k not in (i, j) and P.leq(i, k) and P.leq(k, j) for k in range(P.size))
    ]


def expand_image(P, Q, free, outer_img):
    """The reference for one outer image: whether it is sound, and its maps.

    A sound image has an int in range per outer element and holds on every
    cover edge between two outer elements.  Its maps are found by trying
    every value on every free element and keeping the maps monotone on all
    pairs, varying along the free elements in increasing index, the last
    fastest; there may be none."""
    outer = [e for e in range(P.size) if e not in free]
    if len(outer_img) != len(outer) or not all(
        type(v) is int and 0 <= v < Q.size for v in outer_img
    ):
        return False, []
    values = dict(zip(outer, outer_img))
    if any(
        not Q.leq(values[i], values[j])
        for i, j in brute_cover_edges(P)
        if i in values and j in values
    ):
        return False, []
    maps = []
    for combo in iproduct(range(Q.size), repeat=len(free)):
        values.update(zip(sorted(free), combo))
        image = tuple(values[e] for e in range(P.size))
        if monotone_on_all_pairs(P, Q, image):
            maps.append(MonotoneMap(P, Q, image))
    return True, maps


def expanded_prefix(P, Q, images, free):
    """The reference: the maps of every image up to the first unsound one."""
    maps = []
    for outer_img in images:
        good, image_maps = expand_image(P, Q, free, outer_img)
        if not good:
            return maps, True
        maps += image_maps
    return maps, False


def antichains(P):
    """Every antichain of P, as a tuple in increasing index, the empty one first."""
    return [
        free
        for r in range(P.size + 1)
        for free in combinations(range(P.size), r)
        if not any(P.leq(a, b) for a in free for b in free if a != b)
    ]


def outer_of(P, free, image):
    """The values of a map on the elements outside `free`."""
    return tuple(v for e, v in enumerate(image) if e not in free)


# values that are not ints in range, though some compare like them
NOT_IN_RANGE = (-1, 1.0, True, False)


class TestCheckedMaps:
    """checked_maps checks each image where it changed; it must agree with
    checking every image in full and trying every value on each free element."""

    @given(st.data())
    @settings(max_examples=200)
    def test_yields_exactly_the_monotone_prefix(self, data):
        P = data.draw(st.sampled_from(posets_to_five()))
        Q = data.draw(st.sampled_from(posets_to_five()))
        # an antichain, possibly empty, in a drawn order
        picks = data.draw(st.permutations(range(P.size)))[: data.draw(st.integers(0, P.size))]
        free = []
        for a in picks:
            if not any(P.leq(a, b) or P.leq(b, a) for b in free):
                free.append(a)
        free = tuple(free)
        k = P.size - len(free)
        homs = [f.image for f in monotone_maps(P, Q)]
        values = st.integers(-1, Q.size)
        images = [outer_of(P, free, data.draw(st.sampled_from(homs)))] if homs else []
        kinds = ["map", "outer", "any", "length"] if homs else ["any", "length"]
        for _ in range(data.draw(st.integers(0, 6))):
            kind = data.draw(st.sampled_from(kinds))
            if kind == "length":
                # too many or too few outer values
                size = data.draw(st.integers(0, k + 1).filter(lambda n: n != k))
                image = tuple(data.draw(st.lists(values, min_size=size, max_size=size)))
            elif kind == "any":
                image = tuple(data.draw(st.lists(values, min_size=k, max_size=k)))
            else:
                # the outer values of a map, or the previous image, with one change
                image = outer_of(P, free, data.draw(st.sampled_from(homs)))
                if data.draw(st.booleans()):
                    image = images[-1]
                image = list(image)
                if kind == "outer" and len(image) == k and k:
                    # one outer value replaced: out of range, not an int, or a near miss
                    at = data.draw(st.integers(0, k - 1))
                    near = st.sampled_from([image[at] - 1, image[at] + 1])
                    image[at] = data.draw(
                        st.one_of(st.sampled_from([Q.size, *NOT_IN_RANGE]), near, values)
                    )
                image = tuple(image)
            images.append(image)
        maps, raised = checked_prefix(P, Q, images, free)
        assert (maps, raised) == expanded_prefix(P, Q, images, free)
        assert all(type(f) is MonotoneMap for f in maps)

    def test_exhaustive_to_three_elements(self):
        # a first image from every monotone map, then every image of values
        # over -1..Q.size
        posets = [P for P in posets_to_five() if P.size <= 3]
        for P in posets:
            for free in antichains(P):
                k = P.size - len(free)
                for Q in posets:
                    homs = monotone_maps(P, Q)
                    firsts = sorted({outer_of(P, free, f.image) for f in homs})
                    first_maps = [expand_image(P, Q, free, first)[1] for first in firsts]
                    for second in iproduct(range(-1, Q.size + 1), repeat=k):
                        good, second_maps = expand_image(P, Q, free, second)
                        for first, maps_before in zip(firsts, first_maps):
                            maps, raised = checked_prefix(P, Q, [first, second], free)
                            assert maps == maps_before + second_maps
                            assert raised != good

    def test_first_image_is_checked_in_full(self):
        with pytest.raises(ValueError, match="not monotone on 0 <= 1"):
            next(checked_maps(chain(1), chain(1), [(1, 0)]))
        with pytest.raises(ValueError, match="not monotone on 0 <= 1"):
            next(checked_maps(chain(2), chain(1), [(1, 0)], free=(2,)))
        assert list(checked_maps(chain(1), chain(1), [])) == []

    def test_wrong_length_after_the_first_is_rejected(self):
        maps = checked_maps(chain(1), chain(1), [(0, 1), (0,)])
        assert next(maps) == identity_map(chain(1))
        with pytest.raises(ValueError, match="image length"):
            next(maps)

    @pytest.mark.parametrize(
        "free,match",
        [((0, 1), "comparable"), ((1, 0), "comparable"), ((1, 1), "repeated"),
         ((2,), "not in the domain"), ((-1,), "not in the domain")],
    )
    def test_free_must_be_an_antichain_of_the_domain(self, free, match):
        # checked before any image, also when there is none
        with pytest.raises(ValueError, match=match):
            next(checked_maps(chain(1), chain(1), [], free))
        good = next(checked_maps(vee(), chain(1), [(1,)], free=(0, 1)))
        assert good.image == (0, 0, 1)

    def test_candidates_lie_between_the_values_of_the_covers(self):
        # 1 is free between 0 and 2: its values run from f(0) up to f(2)
        maps = checked_maps(chain(2), chain(3), [(1, 2), (0, 0), (2, 3)], free=(1,))
        assert [f.image for f in maps] == [
            (1, 1, 2), (1, 2, 2), (0, 0, 0), (2, 2, 3), (2, 3, 3),
        ]

    def test_free_elements_vary_in_increasing_index(self):
        # whatever order `free` is given in, the last free element varies fastest
        for free in ((0, 1), (1, 0)):
            maps = checked_maps(vee(), chain(1), [(1,)], free)
            assert [f.image for f in maps] == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]

    def test_outer_pair_related_only_through_a_free_element(self):
        # 0 < 1 < 2 < 3 with 1 free: (1, 0, 0) sends 0 above 2, which no
        # cover edge between outer elements sees, so it has no extension;
        # the images after it are still checked where they changed
        maps, raised = checked_prefix(
            chain(3), chain(1), [(0, 1, 1), (1, 0, 0), (1, 1, 1), (1, 1, 0)], free=(1,)
        )
        assert [f.image for f in maps] == [(0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)]
        assert raised
        with pytest.raises(ValueError, match="not monotone on 2 <= 3"):
            list(checked_maps(chain(3), chain(1), [(1, 0, 0), (1, 1, 0)], free=(1,)))

    @pytest.mark.parametrize("bad", [*NOT_IN_RANGE, 2])
    def test_image_value_must_be_an_int_in_range(self, bad):
        # on an element with no cover edge, and on one with an edge, also
        # after a first image that held the int value
        for P, images, free in [
            (chain(0), [(bad,)], ()),
            (chain(1), [(0, 1), (0, bad)], ()),
            (chain(2), [(1, 1), (bad, 1)], (1,)),
        ]:
            maps = checked_maps(P, chain(1), images, free)
            for _ in images[1:]:
                assert type(next(maps)) is MonotoneMap
            with pytest.raises(ValueError, match="image value out of range"):
                list(maps)

    @pytest.mark.parametrize("bad", [*NOT_IN_RANGE, 2])
    def test_monotone_map_value_must_be_an_int_in_range(self, bad):
        # 1.0 and True pass a min/max range check
        for P, image in [(chain(0), (bad,)), (chain(1), (0, bad)), (chain(1), (bad, 1))]:
            with pytest.raises(ValueError, match="image value out of range"):
                MonotoneMap(P, chain(1), image)

    def test_image_value_checks_hold_under_python_O(self):
        src = os.path.dirname(os.path.dirname(posetcat.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", VALUES_UNDER_O],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "1 ValueError: image value out of range",
            "MonotoneMap ValueError: image value out of range",
        ] * 5


VALUES_UNDER_O = """
import sys
from posetcat.poset import MonotoneMap, chain, checked_maps
assert sys.flags.optimize == 1
for bad in (-1, 2, 1.0, True, False):
    maps = checked_maps(chain(1), chain(1), [(0, 1), (0, bad)])
    print(len([next(maps)]), end=" ")
    try:
        next(maps)
    except ValueError as exc:
        print(f"ValueError: {exc}")
    try:
        MonotoneMap(chain(1), chain(1), (0, bad))
    except ValueError as exc:
        print(f"MonotoneMap ValueError: {exc}")
"""


class TestProducts:
    def test_empty_power_is_singleton(self):
        assert interval_power(0).size == 1

    def test_square(self):
        sq = interval_power(2)
        assert terminal(sq) == 3
        assert not sq.leq(1, 2) and not sq.leq(2, 1)
        # brute-force glb/lub of the incomparable pair
        assert meet(sq, 1, 2) == 0 and join(sq, 1, 2) == 3

    def test_product_matches_power(self):
        assert product(chain(1), chain(1)) == interval_power(2)

    @pytest.mark.parametrize("n", range(7))
    def test_power_rows_match_subset_order(self, n):
        size = 1 << n
        subset_rows = tuple(
            sum(1 << y for y in range(size) if x & ~y == 0) for x in range(size)
        )
        assert interval_power(n).up == subset_rows

    def test_mixed_product_order(self):
        P = product(chain(1), chain(2))
        # (x, k) <= (x', k') iff x <= x' and k <= k'
        assert P.leq(0, 5) and P.leq(1, 3) and not P.leq(1, 2)


class TestBounds:
    def test_terminal_of_powers(self):
        for n in range(4):
            assert terminal(interval_power(n)) == (1 << n) - 1

    def test_antichain_has_no_terminal(self):
        assert terminal(antichain(2)) is None

    def test_singleton_terminal(self):
        assert terminal(chain(0)) == 0

    def test_meet_none_on_antichain(self):
        assert meet(antichain(2), 0, 1) is None

    def test_meet_of_comparable(self):
        assert meet(chain(3), 1, 2) == 1 and join(chain(3), 1, 2) == 2


class TestCompleteness:
    def test_powers_complete(self):
        for n in range(4):
            assert is_complete(interval_power(n))

    def test_vee_not_complete(self):
        assert not is_complete(vee())

    def test_empty_not_complete(self):
        assert not is_complete(Poset(0, ()))


class TestLimitViaRetract:
    def sort_retract(self):
        # the chain 0<1<2 sitting inside the square as {00, 01, 11}
        sq = interval_power(2)
        inner = chain(2)
        s = MonotoneMap(inner, sq, (0, 2, 3))
        r = MonotoneMap(sq, inner, (0, 1, 1, 2))
        return Retract(sq, inner, s, r)

    def test_spec_example(self):
        ret = self.sort_retract()
        # targets {(0,1), (1,1)} = inner elements {1, 2}
        assert limit_via_retract(ret, [1, 2]) == 1

    def test_top_target(self):
        ret = self.sort_retract()
        assert limit_via_retract(ret, [2]) == 2

    def test_all_targets_give_bottom(self):
        ret = self.sort_retract()
        assert limit_via_retract(ret, [0, 1, 2]) == 0

    def test_empty_targets_give_top(self):
        ret = self.sort_retract()
        assert limit_via_retract(ret, []) == 2

    def test_brute_force_agreement(self):
        ret = self.sort_retract()
        B = ret.inner
        for targets in [[0], [1], [2], [0, 1], [1, 2], [0, 2], [0, 1, 2]]:
            lower = [x for x in range(B.size) if all(B.leq(x, t) for t in targets)]
            best = [x for x in lower if all(B.leq(y, x) for y in lower)]
            assert limit_via_retract(ret, targets) == best[0]

    def test_missing_outer_infimum_raises(self):
        # the two bottoms of the vee have no lower bound at all
        ret = Retract(vee(), vee(), identity_map(vee()), identity_map(vee()))
        assert limit_via_retract(ret, [0, 2]) == 0
        with pytest.raises(NotComplete, match="no infimum"):
            limit_via_retract(ret, [0, 1])


class TestRetractValidation:
    def test_bad_retract_rejected(self):
        sq = interval_power(2)
        s = MonotoneMap(chain(1), sq, (0, 3))
        bad_r = MonotoneMap(sq, chain(1), (0, 0, 0, 0))
        with pytest.raises(InvariantViolation):
            Retract(sq, chain(1), s, bad_r)

    def test_maps_must_run_between_outer_and_inner(self):
        sq = interval_power(2)
        s = MonotoneMap(chain(1), sq, (0, 3))
        r = MonotoneMap(sq, chain(1), (0, 0, 1, 1))
        assert Retract(sq, chain(1), s, r).inner == chain(1)
        with pytest.raises(DomainMismatch, match="section must map inner -> outer"):
            Retract(sq, chain(1), identity_map(chain(1)), r)
        with pytest.raises(DomainMismatch, match="retraction must map outer -> inner"):
            Retract(sq, chain(1), s, identity_map(sq))


# Every construction check must raise under python -O too.
CHECKS_UNDER_O = """
import sys
from posetcat.errors import InvariantViolation, NotIdempotent
from posetcat.karoubi import Idempotent
from posetcat.poset import MonotoneMap, Poset, Retract, chain, interval_power
sq = interval_power(2)
section = MonotoneMap(chain(1), sq, (0, 3))
builds = [
    (ValueError, lambda: MonotoneMap(chain(1), chain(1), (1, 0))),
    (ValueError, lambda: Poset(2, (3, 3))),
    (InvariantViolation, lambda: Retract(sq, chain(1), section, MonotoneMap(sq, chain(1), (0,) * 4))),
    (NotIdempotent, lambda: Idempotent(MonotoneMap(chain(2), chain(2), (1, 2, 2)))),
]
for exc, build in builds:
    try:
        build()
    except exc as e:
        print(f"{type(e).__name__}: {e}")
print(sys.flags.optimize)
"""


class TestValueTypes:
    def values(self):
        sq = interval_power(2)
        f = identity_map(sq)
        return [
            (sq, "size"), (sq, "up"), (f, "dom"), (f, "image"),
            (retract_certificate(chain(1)), "section"),
            (enumerate_posets(2)[0], "key"), (Idempotent(f), "map"),
        ]

    def test_fields_are_read_only(self):
        for value, field in self.values():
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))

    def test_hash_is_the_hash_of_the_fields(self):
        # the hash a frozen dataclass had, so set and dict orders stay put
        for P in [Poset(0, ()), chain(2), vee(), diamond(), interval_power(2)]:
            assert hash(P) == hash((P.size, P.up))
        for f in monotone_maps(vee(), diamond()) + (identity_map(interval_power(2)),):
            assert hash(f) == hash((f.dom, f.cod, f.image))

    def test_reprs_are_pinned(self):
        assert repr(vee()) == "Poset(size=3, covers=[(0, 2), (1, 2)])"
        assert repr(MonotoneMap(chain(1), chain(2), (0, 2))) == "MonotoneMap(2->3, [0, 2])"
        assert repr(retract_certificate(chain(1))) == (
            "Retract(outer=Poset(size=4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)]), "
            "inner=Poset(size=2, covers=[(0, 1)]), section=MonotoneMap(2->4, [1, 3]), "
            "retraction=MonotoneMap(4->2, [0, 0, 1, 1]))"
        )

    def test_lists_are_stored_as_tuples(self):
        P = Poset(2, [3, 2])
        assert P == chain(1) and hash(P) == hash(chain(1))
        f = MonotoneMap(chain(1), chain(1), [0, 1])
        assert f == identity_map(chain(1)) and hash(f) == hash(identity_map(chain(1)))
        assert [g.image for g in monotone_maps(P, chain(1))] == [(0, 0), (0, 1), (1, 1)]
        up = (3, 2)
        assert Poset(2, up).up is up

    def test_construction_checks_hold_under_python_O(self):
        src = os.path.dirname(os.path.dirname(posetcat.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", CHECKS_UNDER_O],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "ValueError: not monotone on 0 <= 1",
            "ValueError: not antisymmetric at (0,1)",
            "InvariantViolation: retraction . section is not the identity",
            "NotIdempotent: f . f differs from f",
            "1",
        ]


class TestJson:
    def test_poset_round_trip(self):
        for P in [chain(2), interval_power(2), vee(), diamond(), antichain(3)]:
            assert poset_from_json(poset_to_json(P), JSON_POSET_BOUND) == P

    def test_covering_relation_only(self):
        data = poset_to_json(chain(2))
        assert data == {"size": 3, "relation": [[0, 1], [1, 2]]}

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            {"relation": []},
            {"size": "2", "relation": []},
            {"size": True, "relation": []},
            {"size": -1, "relation": []},
            {"size": 2},
            {"size": 2, "relation": {"0": 1}},
            {"size": 2, "relation": [[0, 5]]},
            {"size": 2, "relation": [[-1, 0]]},
            {"size": 2, "relation": [[0, 1, 1]]},
            {"size": 2, "relation": [[0, 1.0]]},
            {"size": 2, "relation": [0]},
        ],
    )
    def test_malformed_input_rejected(self, data):
        with pytest.raises(SchemaError):
            poset_from_json(data, JSON_POSET_BOUND)

    def test_size_bound_checked_before_closure(self):
        with pytest.raises(BoundExceeded):
            poset_from_json({"size": 10 ** 12, "relation": []}, max_size=12)
        assert poset_from_json(poset_to_json(chain(2)), max_size=3) == chain(2)


@st.composite
def small_posets(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(0, size - 1), st.integers(0, size - 1)
            ).filter(lambda p: p[0] != p[1]),
            max_size=6,
        )
    )
    try:
        return validate_poset(pairs, size)
    except CycleError:
        return chain(size - 1)


@given(small_posets())
def test_construction_invariants(P):
    # reflexive, antisymmetric, transitive: re-validated via reconstruction
    assert Poset(P.size, P.up) == P
    for i in range(P.size):
        assert P.leq(i, i)
        for j in range(P.size):
            if i != j and P.leq(i, j):
                assert not P.leq(j, i)
            if P.leq(i, j):
                for k in range(P.size):
                    if P.leq(j, k):
                        assert P.leq(i, k)


@given(small_posets(), st.integers(0, 4), st.integers(0, 4))
def test_meet_join_against_brute_force(P, a, b):
    a %= P.size
    b %= P.size
    lower = [x for x in range(P.size) if P.leq(x, a) and P.leq(x, b)]
    glb = [x for x in lower if all(P.leq(y, x) for y in lower)]
    assert meet(P, a, b) == (glb[0] if glb else None)
    upper = [x for x in range(P.size) if P.leq(a, x) and P.leq(b, x)]
    lub = [x for x in upper if all(P.leq(x, y) for y in upper)]
    assert join(P, a, b) == (lub[0] if lub else None)


def test_meet_join_brute_force_all_posets_to_six():
    # and terminal and is_complete, against the same order-only definitions
    from posetcat.catalog import enumerate_posets

    for size in range(7):
        for cp in enumerate_posets(size):
            P = cp.poset
            top = [x for x in range(P.size) if all(P.leq(y, x) for y in range(P.size))]
            assert terminal(P) == (top[0] if top else None)
            complete = P.size > 0
            for a in range(P.size):
                for b in range(P.size):
                    lower = [x for x in range(P.size) if P.leq(x, a) and P.leq(x, b)]
                    glb = [x for x in lower if all(P.leq(y, x) for y in lower)]
                    assert meet(P, a, b) == (glb[0] if glb else None)
                    upper = [x for x in range(P.size) if P.leq(a, x) and P.leq(b, x)]
                    lub = [x for x in upper if all(P.leq(x, y) for y in upper)]
                    assert join(P, a, b) == (lub[0] if lub else None)
                    complete = complete and bool(glb) and bool(lub)
            assert is_complete(P) == complete
