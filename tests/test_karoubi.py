import json
from itertools import product

import pytest

from posetcat import catalog, checks, cli, cube, karoubi
from posetcat.errors import BoundExceeded, InvariantViolation, NotComplete, NotIdempotent
from posetcat.poset import (
    MonotoneMap,
    Poset,
    chain,
    compose,
    identity_map,
    induced_subposet,
    interval_power,
    is_complete,
    lattice_structure,
    limit_via_retract,
    meet,
    validate_poset,
)


def diamond():
    return validate_poset({(0, 1), (0, 2), (1, 3), (2, 3)}, 4)


def all_endos(P):
    return list(catalog.enumerate_monotone_maps(P, P))


class TestSplitIdempotent:
    def test_identity_splits_to_itself(self):
        P = diamond()
        sp = karoubi.split_idempotent(karoubi.Idempotent(identity_map(P)))
        assert sp.inner == P
        assert sp.retraction.is_identity and sp.section.is_identity

    def test_constant_at_top(self):
        sq = interval_power(2)
        f = MonotoneMap(sq, sq, (3, 3, 3, 3))
        sp = karoubi.split_idempotent(karoubi.Idempotent(f))
        assert sp.inner.size == 1

    def test_sort_on_square(self):
        f = cube.sort_endomorphism(2)
        sp = karoubi.split_idempotent(karoubi.Idempotent(f))
        assert sp.section.image == (0, 2, 3)
        assert catalog.find_isomorphism(sp.inner, chain(2)) is not None

    def test_rejects_non_idempotent(self):
        sq = interval_power(2)
        swap = cube.symmetry((1, 0))
        with pytest.raises(NotIdempotent):
            karoubi.Idempotent(swap)
        with pytest.raises(NotIdempotent):
            karoubi.Idempotent(MonotoneMap(sq, chain(3), (0, 1, 2, 3)))


def coequalizer_quotient(f: karoubi.Idempotent) -> Poset:
    """Quotient of the domain by a ~ f(a), with the induced order.

    Independent of split_idempotent; used to check the splitting middle is
    unique up to isomorphism.
    """
    P = f.map.dom
    reps = [a for a in range(P.size) if f.map.image[a] == a]
    pos = {a: i for i, a in enumerate(reps)}
    cls = [pos[f.map.image[a]] for a in range(P.size)]
    k = len(reps)
    up = [1 << i for i in range(k)]
    for a in range(P.size):
        m = P.up[a]
        while m:
            b = (m & -m).bit_length() - 1
            m &= m - 1
            up[cls[a]] |= 1 << cls[b]
    # transitive closure of the induced relation
    for t in range(k):
        bit = 1 << t
        for i in range(k):
            if up[i] & bit:
                up[i] |= up[t]
    return Poset(k, tuple(up))


class TestSplittingUniqueness:
    def test_middle_matches_coequalizer_quotient(self):
        # both splitting equations hold and the middle agrees, up to iso, with
        # the independently built quotient by a ~ f(a), for every idempotent
        # on every cataloged poset of size <= 5
        idempotents = 0
        for size in range(1, 6):
            for cp in catalog.enumerate_posets(size):
                P = cp.poset
                for f in all_endos(P):
                    img = f.image
                    if any(img[img[x]] != img[x] for x in range(P.size)):
                        continue
                    idempotents += 1
                    sp = karoubi.split_idempotent(karoubi.Idempotent(f))
                    q = coequalizer_quotient(karoubi.Idempotent(f))
                    assert catalog.find_isomorphism(sp.inner, q) is not None
        assert idempotents > 1000


def filtered_audit(n):
    """The audit by filtering all of End([1]^n): (endos, idempotents, split classes)."""
    Q = interval_power(n)
    endos = idempotents = 0
    classes = {}
    for f in catalog.enumerate_monotone_maps(Q, Q):
        endos += 1
        img = f.image
        if any(img[img[x]] != img[x] for x in range(Q.size)):
            continue
        idempotents += 1
        sp = karoubi.split_idempotent(karoubi.Idempotent(f))
        key = catalog.canonical_key(sp.inner)
        classes[key] = classes.get(key, 0) + 1
    return endos, idempotents, classes


class TestAudits:
    @pytest.mark.parametrize("n", range(0, 4))
    def test_equals_filtering_all_endomorphisms(self, n):
        r = karoubi.audit_cube_idempotents(n)
        assert (r.endos, r.idempotents, r.split_classes) == filtered_audit(n)
        assert r.violations == []

    def test_dim4_through_cli(self, capsys):
        # about 1-2 s: 3,983 retraction counts and 902 canonical keys
        code = cli.main(["audit-idempotents", "--dim", "4"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (data["endos"], data["idempotents"]) == (168 ** 4, 6_999_420)
        assert len(data["splits"]) == 544 and data["violations"] == []

    def test_dim0(self):
        r = karoubi.audit_cube_idempotents(0)
        assert (r.endos, r.idempotents) == (1, 1) and not r.violations

    def test_dim1(self):
        r = karoubi.audit_cube_idempotents(1)
        assert (r.endos, r.idempotents) == (3, 3) and not r.violations

    def test_dim2_idempotent_count_against_function_filter(self):
        # independent oracle: all 4^4 vertex functions, filter monotone and
        # idempotent directly
        sq = interval_power(2)
        monotone = idem = 0
        for image in product(range(4), repeat=4):
            if all(
                sq.leq(image[x], image[y])
                for x in range(4)
                for y in range(4)
                if x & ~y == 0
            ):
                monotone += 1
                if all(image[image[x]] == image[x] for x in range(4)):
                    idem += 1
        r = karoubi.audit_cube_idempotents(2)
        assert (monotone, idem) == (36, r.idempotents)
        assert r.endos == 36 and not r.violations

    def test_dim2_split_classes_are_lattices(self):
        r = karoubi.audit_cube_idempotents(2)
        lattice_keys = {
            cp.key for n in range(1, 5) for cp in catalog.enumerate_lattices(n)
        }
        assert set(r.split_classes) <= lattice_keys

    def test_exhaustive_bound(self):
        with pytest.raises(BoundExceeded):
            karoubi.audit_cube_idempotents(5)

    def test_incomplete_middles_fail_the_audit(self, monkeypatch, capsys):
        # pretend no 3-element poset is complete: the chains 00 < 01 < 11 and
        # 00 < 10 < 11 are retracts of the square, so all three entry points
        # must report the failure
        complete = karoubi.is_complete
        monkeypatch.setattr(karoubi, "is_complete", lambda P: P.size != 3 and complete(P))
        r = karoubi.audit_cube_idempotents(2)
        assert r.violations and not r.passed
        assert {v["reason"] for v in r.violations} == {"split middle is not complete"}
        assert all(len(v["fix_set"]) == 3 for v in r.violations)
        assert cli.main(["audit-idempotents", "--dim", "2"]) == 1
        assert json.loads(capsys.readouterr().out)["violations"] == r.violations
        with pytest.raises(InvariantViolation):
            checks.check_cube_idempotents(2)

    def test_report_json_shape(self):
        data = karoubi.audit_report_to_json(karoubi.audit_cube_idempotents(1))
        assert data["endos"] == 3 and data["idempotents"] == 3
        assert data["violations"] == [] and "wall_time" not in data


def downset_lattice(C: Poset) -> tuple[Poset, tuple[int, ...]]:
    """Poset of down-sets of C ordered by inclusion, with the mask per element.

    This is the intermediate object of the two-step retract construction
    (antitone 0/1 functions on C).  A down-set is the zero set of a monotone
    map C -> [1], so the masks are read from the uncached hom-set stream
    (leaving the `monotone_maps` cache alone), sorted, and ordered by
    inclusion as vertices of the cube [1]^|C|.
    """
    masks = sorted(
        sum(1 << e for e, v in enumerate(f.image) if v == 0)
        for f in catalog.enumerate_monotone_maps(C, chain(1))
    )
    DL, _ = induced_subposet(interval_power(C.size), masks)
    return DL, tuple(masks)


def two_step_certificate_maps(C: Poset) -> tuple[MonotoneMap, MonotoneMap]:
    """Section/retraction built through the down-set lattice, for comparison.

    First step embeds C into its down-set lattice (principal down-sets, with
    join as the retraction); second step includes down-sets among all subsets
    of |C| (with down-closure as the retraction).  The composites must agree
    with the collapsed formulas of retract_certificate.
    """
    if not is_complete(C):
        raise NotComplete("only complete posets admit the certificate")
    n = C.size
    cube_poset = interval_power(n)
    DL, masks = downset_lattice(C)
    pos = {D: i for i, D in enumerate(masks)}
    lat = lattice_structure(C)

    def join_of(mask: int) -> int:
        acc = lat.bottom
        m = mask
        while m:
            c = (m & -m).bit_length() - 1
            m &= m - 1
            acc = lat.join_table[acc][c]
        return acc

    def down_closure(x: int) -> int:
        acc = 0
        m = x
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            acc |= C.down[i]
        return acc

    y = MonotoneMap(C, DL, tuple(pos[C.down[c]] for c in range(n)))
    r1 = MonotoneMap(DL, C, tuple(join_of(D) for D in masks))
    s2 = MonotoneMap(DL, cube_poset, masks)
    r2 = MonotoneMap(cube_poset, DL, tuple(pos[down_closure(x)] for x in range(1 << n)))
    return compose(s2, y), compose(r1, r2)


class TestRetractCertificate:
    def test_singleton(self):
        cert = karoubi.retract_certificate(chain(0))
        assert cert.outer == interval_power(1)
        assert cert.section.image == (1,)
        assert cert.retraction.image == (0, 0)

    def test_walking_arrow(self):
        cert = karoubi.retract_certificate(chain(1))
        assert cert.section.image == (1, 3)
        for c in range(2):
            assert cert.retraction.image[cert.section.image[c]] == c

    def test_diamond_in_dim4(self):
        cert = karoubi.retract_certificate(diamond())
        assert cert.outer == interval_power(4)
        for c in range(4):
            assert cert.retraction.image[cert.section.image[c]] == c

    def test_section_is_downset_indicator(self):
        for size in range(1, 6):
            for cp in catalog.enumerate_lattices(size):
                cert = karoubi.retract_certificate(cp.poset)
                for c in range(size):
                    assert cert.section.image[c] == cp.poset.down[c]

    def test_retraction_is_join_of_indicated(self):
        from posetcat.poset import lattice_structure

        L = diamond()
        cert = karoubi.retract_certificate(L)
        lat = lattice_structure(L)
        for x in range(1 << 4):
            acc = lat.bottom
            for c in range(4):
                if x >> c & 1:
                    acc = lat.join_table[acc][c]
            assert cert.retraction.image[x] == acc

    def test_rejects_incomplete(self):
        with pytest.raises(NotComplete):
            karoubi.retract_certificate(validate_poset({(0, 2), (1, 2)}, 3))

    def test_meets_transfer_along_the_certificate(self):
        # the certificate is a Retract of a complete cube, so meets in the
        # lattice are the retraction of meets of section images
        pairs = 0
        for size in range(1, 7):
            for cp in catalog.enumerate_lattices(size):
                L = cp.poset
                cert = karoubi.retract_certificate(L)
                for a in range(size):
                    for b in range(size):
                        assert limit_via_retract(cert, [a, b]) == meet(L, a, b)
                        pairs += 1
        assert pairs == 711

    def test_two_step_composite_agrees(self):
        for size in range(1, 5):
            for cp in catalog.enumerate_lattices(size):
                s2, r2 = two_step_certificate_maps(cp.poset)
                cert = karoubi.retract_certificate(cp.poset)
                assert s2.image == cert.section.image
                assert r2.image == cert.retraction.image

    def test_hom_functors_preserve_the_retract(self):
        # applying Poset(Q, -) to (s, r) gives a split injection/surjection
        probes = [cp.poset for s in range(1, 4) for cp in catalog.enumerate_posets(s)]
        for size in range(1, 5):
            for cp in catalog.enumerate_lattices(size):
                cert = karoubi.retract_certificate(cp.poset)
                for Q in probes:
                    homs = catalog.monotone_maps(Q, cp.poset)
                    transported = [
                        compose(cert.retraction, compose(cert.section, f)) for f in homs
                    ]
                    assert [f.image for f in transported] == [f.image for f in homs]


class TestSimplexRetract:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_retract_identity(self, n):
        ret = karoubi.simplex_retract(n)
        for k in range(n + 1):
            assert ret.retraction.image[ret.section.image[k]] == k

    def test_spec_vectors_dim2(self):
        ret = karoubi.simplex_retract(2)
        # s(1) = (0, 1): the single 1 in the high coordinate
        assert ret.section.image[1] == 0b10
        # r(1, 0) = coordinate sum 1
        assert ret.retraction.image[0b01] == 1

    def test_section_is_monotone_nested(self):
        ret = karoubi.simplex_retract(4)
        for k in range(4):
            a, b = ret.section.image[k], ret.section.image[k + 1]
            assert a & ~b == 0


class TestSortSplit:
    @pytest.mark.parametrize("m", range(0, 6))
    def test_middle_is_chain(self, m):
        ok, iso = karoubi.verify_sort_split(m)
        assert ok and iso is not None
        assert iso.dom.size == m + 1

    def test_agrees_with_simplex_retract(self):
        # the returned iso transports the split retract onto simplex_retract
        for m in range(0, 5):
            f = cube.sort_endomorphism(m)
            sp = karoubi.split_idempotent(karoubi.Idempotent(f))
            ok, iso = karoubi.verify_sort_split(m)
            simplex = karoubi.simplex_retract(m)
            for x in range(1 << m):
                assert iso.image[sp.retraction.image[x]] == simplex.retraction.image[x]

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            karoubi.verify_sort_split(6)


def filtered_downsets(C):
    """The subset filter downset_lattice used before: keep the down-closed masks."""
    return tuple(
        D for D in range(1 << C.size)
        if all(C.down[i] & ~D == 0 for i in range(C.size) if D >> i & 1)
    )


class TestDownsetLattice:
    def test_masks_equal_the_subset_filter(self):
        info = catalog.monotone_maps.cache_info()
        for n in range(6):
            for cp in catalog.enumerate_posets(n):
                DL, masks = downset_lattice(cp.poset)
                assert masks == filtered_downsets(cp.poset)
                assert DL.size == len(masks)
                for i, D in enumerate(masks):
                    for j, E in enumerate(masks):
                        assert bool(DL.up[i] >> j & 1) == (D & ~E == 0)
        again = catalog.monotone_maps.cache_info()
        assert (again.hits, again.misses) == (info.hits, info.misses)

    def test_chain_downsets(self):
        DL, masks = downset_lattice(chain(2))
        assert masks == (0, 1, 3, 7)
        assert catalog.find_isomorphism(DL, chain(3)) is not None

    def test_antichain_downsets_form_cube(self):
        from posetcat.poset import antichain

        DL, masks = downset_lattice(antichain(2))
        assert DL == interval_power(2)
