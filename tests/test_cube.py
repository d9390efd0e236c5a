import pytest

from posetcat import catalog, cube
from posetcat.errors import DomainMismatch
from posetcat.poset import MonotoneMap, chain, compose, identity_map, interval_power


def all_cube_maps(m, n):
    return list(
        catalog.enumerate_monotone_maps(interval_power(m), interval_power(n))
    )


class TestDedekindCounts:
    @pytest.mark.parametrize("n,expect", [(0, 2), (1, 3), (2, 6), (3, 20)])
    def test_truth_table_oracle(self, n, expect):
        # naive filter over all 2^(2^n) vertex functions
        size = 1 << n
        count = 0
        for bits in range(1 << size):
            if all(
                (bits >> x & 1) <= (bits >> y & 1)
                for x in range(size)
                for y in range(size)
                if x & ~y == 0
            ):
                count += 1
        assert count == expect
        assert len(all_cube_maps(n, 1)) == expect


class TestComposition:
    def test_composition_with_dim3(self):
        diagonal = MonotoneMap(chain(1), interval_power(3), (0, 7))
        out = compose(cube.sort_endomorphism(3), diagonal)
        assert out.image == (0, 7)

    def test_shape_mismatch(self):
        with pytest.raises(DomainMismatch):
            compose(identity_map(interval_power(2)), identity_map(interval_power(1)))


class TestGenerators:
    def test_face_point_at_one(self):
        assert cube.face(1, 0, 1).image == (1,)
        assert cube.face(1, 0, 0).image == (0,)

    def test_meet_connection_truth_table(self):
        conn = cube.connection(1, 0, "meet")
        assert conn.dom == interval_power(2) and conn.cod == interval_power(1)
        assert conn.image == (0, 0, 0, 1)

    def test_join_connection_truth_table(self):
        assert cube.connection(1, 0, "join").image == (0, 1, 1, 1)

    def test_degeneracy_then_face_fixes_other_slots(self):
        for n in range(1, 4):
            for i in range(n):
                for eps in (0, 1):
                    idem = compose(cube.face(n, i, eps), cube.degeneracy(n, i))
                    for x in range(1 << n):
                        expect = (x & ~(1 << i)) | (eps << i)
                        assert idem.image[x] == expect
                    # and the other composition order is the identity
                    assert compose(cube.degeneracy(n, i), cube.face(n, i, eps)) == identity_map(
                        interval_power(n - 1)
                    )

    def test_connection_face_relations(self):
        # a connection precomposed with a face on one of its two merged slots
        for n in range(1, 4):
            ident = identity_map(interval_power(n))
            for i in range(n):
                for j in (i, i + 1):
                    meet, join = cube.connection(n, i, "meet"), cube.connection(n, i, "join")
                    assert compose(meet, cube.face(n + 1, j, 1)) == ident
                    assert compose(join, cube.face(n + 1, j, 0)) == ident
                    for conn, eps in ((meet, 0), (join, 1)):
                        assert compose(conn, cube.face(n + 1, j, eps)) == compose(
                            cube.face(n, i, eps), cube.degeneracy(n, i)
                        )

    def test_connection_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            cube.connection(1, 0, "max")

    def test_symmetry_swaps_coordinates(self):
        assert cube.symmetry((1, 0)).image == (0, 2, 1, 3)

    def test_symmetry_rejects_non_permutation(self):
        with pytest.raises(IndexError):
            cube.symmetry((0, 0))

    def test_face_index_range(self):
        with pytest.raises(IndexError):
            cube.face(2, 2, 0)


class TestSortEndomorphism:
    def test_dim2_values(self):
        s = cube.sort_endomorphism(2)
        assert s.image[0b01] == 0b10  # (1,0) -> (0,1)
        assert s.image[0b00] == 0b00 and s.image[0b11] == 0b11

    @pytest.mark.parametrize("m", range(0, 5))
    def test_idempotent(self, m):
        s = cube.sort_endomorphism(m)
        assert compose(s, s) == s

    @pytest.mark.parametrize("m", range(0, 5))
    def test_sorts_every_vertex(self, m):
        s = cube.sort_endomorphism(m)
        for x in range(1 << m):
            k = bin(x).count("1")
            assert s.image[x] == ((1 << k) - 1) << (m - k)
