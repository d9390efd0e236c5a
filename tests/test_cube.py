import pytest

from posetcat import catalog, cube
from posetcat.errors import DomainMismatch
from posetcat.poset import MonotoneMap, chain, compose, identity_map, interval_power


def face(n, i, eps):
    """[1]^(n-1) -> [1]^n inserting the constant eps at slot i."""
    if not 0 <= i < n:
        raise IndexError(f"face slot {i} out of range for dimension {n}")
    low = (1 << i) - 1
    bit = 1 << i if eps else 0
    return cube._cube_map(n - 1, n, lambda x: x & low | bit | (x & ~low) << 1)


def degeneracy(n, i):
    """[1]^n -> [1]^(n-1) dropping slot i."""
    if not 0 <= i < n:
        raise IndexError(f"degeneracy slot {i} out of range for dimension {n}")
    low = (1 << i) - 1
    return cube._cube_map(n, n - 1, lambda x: x & low | x >> 1 & ~low)


def connection(n, i, kind="meet"):
    """[1]^(n+1) -> [1]^n merging slots i, i+1 by meet or join."""
    if not 0 <= i < n:
        raise IndexError(f"connection slot {i} out of range for dimension {n}")
    if kind not in ("meet", "join"):
        raise ValueError("connection kind must be 'meet' or 'join'")
    low = (1 << i) - 1
    pair = 3 << i
    hit = (lambda x: x & pair == pair) if kind == "meet" else (lambda x: x & pair != 0)
    return cube._cube_map(n + 1, n, lambda x: x & low | hit(x) << i | x >> (i + 2) << (i + 1))


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
        assert face(1, 0, 1).image == (1,)
        assert face(1, 0, 0).image == (0,)

    def test_meet_connection_truth_table(self):
        conn = connection(1, 0, "meet")
        assert conn.dom == interval_power(2) and conn.cod == interval_power(1)
        assert conn.image == (0, 0, 0, 1)

    def test_join_connection_truth_table(self):
        assert connection(1, 0, "join").image == (0, 1, 1, 1)

    def test_degeneracy_then_face_fixes_other_slots(self):
        for n in range(1, 4):
            for i in range(n):
                for eps in (0, 1):
                    idem = compose(face(n, i, eps), degeneracy(n, i))
                    for x in range(1 << n):
                        expect = (x & ~(1 << i)) | (eps << i)
                        assert idem.image[x] == expect
                    # and the other composition order is the identity
                    assert compose(degeneracy(n, i), face(n, i, eps)) == identity_map(
                        interval_power(n - 1)
                    )

    def test_connection_face_relations(self):
        # a connection precomposed with a face on one of its two merged slots
        for n in range(1, 4):
            ident = identity_map(interval_power(n))
            for i in range(n):
                for j in (i, i + 1):
                    meet, join = connection(n, i, "meet"), connection(n, i, "join")
                    assert compose(meet, face(n + 1, j, 1)) == ident
                    assert compose(join, face(n + 1, j, 0)) == ident
                    for conn, eps in ((meet, 0), (join, 1)):
                        assert compose(conn, face(n + 1, j, eps)) == compose(
                            face(n, i, eps), degeneracy(n, i)
                        )

    def test_connection_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            connection(1, 0, "max")

    def test_symmetry_swaps_coordinates(self):
        assert cube.symmetry((1, 0)).image == (0, 2, 1, 3)

    def test_symmetry_rejects_non_permutation(self):
        with pytest.raises(IndexError):
            cube.symmetry((0, 0))

    def test_face_index_range(self):
        with pytest.raises(IndexError):
            face(2, 2, 0)


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
