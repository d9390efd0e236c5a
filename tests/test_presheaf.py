import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from posetcat import catalog, presheaf as ps
from posetcat.errors import (
    BadIndexSet,
    BoundExceeded,
    InvariantViolation,
    NotComplete,
    SchemaError,
    SiteMismatch,
)
from posetcat.poset import (
    JSON_POSET_BOUND,
    MonotoneMap,
    antichain,
    chain,
    compose,
    interval_power,
    poset_to_json,
    validate_poset,
)


def diamond():
    return validate_poset({(0, 1), (0, 2), (1, 3), (2, 3)}, 4)


def identity_psmap(X):
    return ps.PresheafMap(X, X, [tuple(range(c)) for c in X.cells])


def representable_map(site: ps.PosetSite, f: MonotoneMap) -> ps.PresheafMap:
    """Postcomposition with f as a map of representables y(dom f) -> y(cod f)."""
    src = ps.representable(site, f.dom)
    tgt = ps.representable(site, f.cod)
    comps = []
    for i, Q in enumerate(site.objects):
        idx = {g.image: c for c, g in enumerate(catalog.monotone_maps(Q, f.cod))}
        comps.append(
            tuple(idx[tuple(f.image[v] for v in g.image)] for g in catalog.monotone_maps(Q, f.dom))
        )
    return ps.PresheafMap(src, tgt, comps)


def coproduct(X: ps.Presheaf, Y: ps.Presheaf) -> ps.Presheaf:
    """Levelwise disjoint union (X cells first)."""
    if X.site != Y.site:
        raise SiteMismatch("coproduct requires a common site")
    actions = {}
    for key, tx in X.actions.items():
        i = key[0]
        ty = Y.actions[key]
        actions[key] = tx + tuple(X.cells[i] + v for v in ty)
    return ps.Presheaf(X.site, [a + b for a, b in zip(X.cells, Y.cells)], actions)


class TestSites:
    def test_delta_site_objects(self):
        site = ps.delta_site(3)
        assert [P.size for P in site.objects] == [1, 2, 3, 4]

    def test_negative_delta_site_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 0"):
            ps.delta_site(-1)
        with pytest.raises(ValueError):
            ps.face_union(2, [0], -1)

    def test_box_site_objects(self):
        site = ps.box_site(2)
        assert [P.size for P in site.objects] == [1, 2, 4]

    def test_negative_box_site_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 0"):
            ps.box_site(-1)

    def test_box_site_bound(self):
        with pytest.raises(BoundExceeded):
            ps.box_site(3)

    def test_custom_full_site_closed(self):
        ps.PosetSite([chain(0), chain(1), interval_power(2)])


def mixed_site():
    return ps.PosetSite([chain(0), chain(1), chain(2), interval_power(2)])


def words_reach_every_hom(site):
    """Close the identities under postcomposition with generators, then
    compare with the full hom-sets."""
    n = len(site.objects)
    reached = {(i, i, tuple(range(site.objects[i].size))) for i in range(n)}
    frontier = list(reached)
    while frontier:
        new = []
        for a, b, img in frontier:
            for j, k, h in site.generators:
                if j == b:
                    word = (a, k, tuple(site.homs[j][k][h].image[x] for x in img))
                    if word not in reached:
                        reached.add(word)
                        new.append(word)
        frontier = new
    every = {(i, j, f.image) for i in range(n) for j in range(n) for f in site.homs[i][j]}
    return reached == every


class TestGenerators:
    @pytest.mark.parametrize("d", range(6))
    def test_delta_generators_are_cofaces_and_codegeneracies(self, d):
        site = ps.delta_site(d)
        assert len(site.generators) == d * (d + 2)
        for i, j, h in site.generators:
            image = site.homs[i][j][h].image
            coface = j == i + 1 and len(set(image)) == len(image)
            codegeneracy = j == i - 1 and set(image) == set(range(j + 1))
            assert coface or codegeneracy, (i, j, image)

    # Sites are built inside the test, so a fault in PosetSite fails these
    # cases by name instead of the collection of the module; the ids are the
    # sites' reprs.
    @pytest.mark.parametrize(
        "make_site",
        [
            pytest.param(lambda: ps.delta_site(3), id="PosetSite(delta, sizes=[1, 2, 3, 4])"),
            pytest.param(lambda: ps.box_site(2), id="PosetSite(box, sizes=[1, 2, 4])"),
            pytest.param(mixed_site, id="PosetSite(custom, sizes=[1, 2, 3, 4])"),
        ],
    )
    def test_words_in_generators_reach_every_hom(self, make_site):
        site = make_site()
        assert words_reach_every_hom(site)


def full_pair_functorial(X):
    """Reference: identity law, and X(g.f) = X(f)X(g) on every composable pair."""
    site = X.site
    n = len(site.objects)
    for i in range(n):
        if X.actions[(i, i, site.identity_index[i])] != tuple(range(X.cells[i])):
            return False
    for i, j, k in product(range(n), repeat=3):
        for a, f in enumerate(site.homs[i][j]):
            af = X.actions[(i, j, a)]
            for b, g in enumerate(site.homs[j][k]):
                c = site.hom_index(i, k, tuple(g.image[x] for x in f.image))
                if X.actions[(i, k, c)] != tuple(af[x] for x in X.actions[(j, k, b)]):
                    return False
    return True


def full_naturality(F):
    """Reference: the naturality square at every hom of the site."""
    for (i, j, h), ax in F.source.actions.items():
        ay = F.target.actions[(i, j, h)]
        ci, cj = F.components[i], F.components[j]
        if any(ay[cj[x]] != ci[ax[x]] for x in range(len(ax))):
            return False
    return True


@lru_cache(maxsize=None)
def sample_presheaves():
    sites = [ps.delta_site(1), ps.delta_site(2), ps.box_site(2), mixed_site()]
    return tuple(ps.representable(site, P) for site in sites for P in (chain(1), interval_power(2)))


@lru_cache(maxsize=None)
def sample_maps():
    maps = [identity_psmap(X) for X in sample_presheaves()]
    maps.append(representable_map(ps.delta_site(2), MonotoneMap(chain(1), chain(2), (0, 2))))
    maps.append(ps.horn(2, {1, 2}))
    maps.append(ps.horn(2, {0}))
    return tuple(maps)


def replace_entry(tab, x, rank):
    """tab with entry x set to the rank-th value other than tab[x]."""
    value = rank if rank < tab[x] else rank + 1
    return tab[:x] + (value,) + tab[x + 1:]


class TestGeneratorValidation:
    def test_references_accept_the_samples(self):
        for X in sample_presheaves():
            assert full_pair_functorial(X)
        for F in sample_maps():
            assert full_naturality(F)

    # Each case below breaks the law, or the naturality square, of exactly
    # one generator of delta_site(1): homs (0,1,0) and (0,1,1) pick the
    # vertices 0 and 1 of [1], hom (1,0,0) collapses [1] onto [0].

    @pytest.mark.parametrize("endo", [0, 2])
    def test_constant_endo_must_factor_through_the_vertex(self, endo):
        # y[1] with the constant endomorphism of [1] acting as the identity
        X = ps.representable(ps.delta_site(1), chain(1))
        actions = dict(X.actions)
        actions[(1, 1, endo)] = (0, 1, 2)
        bad = ps.Presheaf(X.site, X.cells, actions, validate=False)
        assert not full_pair_functorial(bad)
        with pytest.raises(InvariantViolation):
            bad.validate()

    def test_degeneracy_must_split_the_faces(self):
        # two vertices, one edge with both ends at vertex 0, and a degeneracy
        # sending both vertices to that edge: every law holds except d_i s = id
        site = ps.delta_site(1)
        actions = {(0, 0, 0): (0, 1), (1, 0, 0): (0, 0)}
        actions.update({(0, 1, h): (0,) for h in range(2)})
        actions.update({(1, 1, h): (0,) for h in range(3)})
        bad = ps.Presheaf(site, [2, 1], actions, validate=False)
        assert not full_pair_functorial(bad)
        with pytest.raises(InvariantViolation):
            bad.validate()

    def test_degeneracy_must_split_the_faces_from_generator_tables(self):
        # the same presheaf given by its generator tables alone: the
        # completed endomorphism tables do not hide the broken law
        site = ps.delta_site(1)
        actions = {(1, 0, 0): (0, 0), (0, 1, 0): (0,), (0, 1, 1): (0,)}
        assert set(actions) == set(site.generators)
        bad = ps.Presheaf(site, [2, 1], actions, validate=False)
        with pytest.raises(InvariantViolation, match="composition law fails"):
            bad.validate()
        assert not full_pair_functorial(reference_completion(site, [2, 1], actions))

    @pytest.mark.parametrize("edge_image", [(0, 2, 2), (0, 0, 2)])
    def test_edge_map_must_respect_each_vertex(self, edge_image):
        # y[1] -> y[1], identity on vertices, the edge 0->1 sent to a loop
        X = ps.representable(ps.delta_site(1), chain(1))
        bad = ps.PresheafMap(X, X, [(0, 1), edge_image], validate=False)
        assert not full_naturality(bad)
        with pytest.raises(InvariantViolation):
            bad.validate()

    def test_vertex_map_must_respect_the_degeneracy(self):
        # y[0] -> (one vertex, a degenerate and a free loop), sending the
        # degenerate edge to the free loop
        site = ps.delta_site(1)
        X = ps.representable(site, chain(0))
        actions = {(0, 0, 0): (0,), (1, 0, 0): (0,), (1, 1, 1): (0, 1)}
        actions.update({(0, 1, h): (0, 0) for h in range(2)})
        actions.update({(1, 1, h): (0, 0) for h in (0, 2)})
        Y = ps.Presheaf(site, [1, 2], actions)
        bad = ps.PresheafMap(X, Y, [(0,), (1,)], validate=False)
        assert not full_naturality(bad)
        with pytest.raises(InvariantViolation):
            bad.validate()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_corrupted_action_entry_is_rejected(self, data):
        X = data.draw(st.sampled_from(sample_presheaves()))
        keys = [k for k in sorted(X.actions) if X.actions[k] and X.cells[k[0]] >= 2]
        key = data.draw(st.sampled_from(keys))
        tab = X.actions[key]
        x = data.draw(st.integers(0, len(tab) - 1))
        rank = data.draw(st.integers(0, X.cells[key[0]] - 2))
        actions = dict(X.actions)
        actions[key] = replace_entry(tab, x, rank)
        bad = ps.Presheaf(X.site, X.cells, actions, validate=False)
        assert not full_pair_functorial(bad)
        with pytest.raises(InvariantViolation):
            bad.validate()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_corrupted_component_entry_is_rejected(self, data):
        F = data.draw(st.sampled_from(sample_maps()))
        levels = [
            i for i, c in enumerate(F.components) if c and F.target.cells[i] >= 2
        ]
        i = data.draw(st.sampled_from(levels))
        comp = F.components[i]
        x = data.draw(st.integers(0, len(comp) - 1))
        rank = data.draw(st.integers(0, F.target.cells[i] - 2))
        comps = list(F.components)
        comps[i] = replace_entry(comp, x, rank)
        bad = ps.PresheafMap(F.source, F.target, comps, validate=False)
        assert not full_naturality(bad)
        with pytest.raises(InvariantViolation):
            bad.validate()


# The per-cell table constructions that the C-level gathers replaced, kept
# here as references.


def reference_representable(site, P):
    n = len(site.objects)
    hom_to_p = [catalog.monotone_maps(Q, P) for Q in site.objects]
    index = [{f.image: c for c, f in enumerate(hom_to_p[i])} for i in range(n)]
    actions = {}
    for i in range(n):
        for j in range(n):
            for h, f in enumerate(site.homs[i][j]):
                fimg = f.image
                actions[(i, j, h)] = tuple(
                    index[i][tuple(g.image[x] for x in fimg)] for g in hom_to_p[j]
                )
    return tuple(len(hs) for hs in hom_to_p), actions


def reference_subpresheaf(X, keep):
    kept = [sorted(set(k)) for k in keep]
    pos = [{c: s for s, c in enumerate(ks)} for ks in kept]
    actions = {}
    for (i, j, h), tab in X.actions.items():
        sub_tab = []
        for c in kept[j]:
            s = pos[i].get(tab[c])
            if s is None:
                raise InvariantViolation("cell selection is not closed under the actions")
            sub_tab.append(s)
        actions[(i, j, h)] = tuple(sub_tab)
    return tuple(len(ks) for ks in kept), actions


EMPTY = validate_poset(set(), 0)
GATHER_POSETS = [chain(0), chain(1), chain(2), interval_power(0), interval_power(1),
                 interval_power(2), antichain(2)]
# objects of size 0 and 1 give gathers over no position and over one
EDGE_SITE_OBJECTS = (EMPTY, chain(0), chain(1), interval_power(2))
GATHER_CASES = (
    [("delta", d, P) for d in range(5) for P in GATHER_POSETS]
    + [("box", d, P) for d in range(3) for P in GATHER_POSETS]
    + [("edge", None, P) for P in [EMPTY, *GATHER_POSETS]]
)


def gather_site(kind, d):
    if kind == "delta":
        return ps.delta_site(d)
    if kind == "box":
        return ps.box_site(d)
    return ps.PosetSite(EDGE_SITE_OBJECTS)


def sub_keeps(site, P):
    """Selections of cells of y(P): everything, nothing, the maps missing one
    element of P (all closed), and the first half at each level (maybe not)."""
    cells = [catalog.monotone_maps(Q, P) for Q in site.objects]
    keeps = [[range(len(cs)) for cs in cells], [[] for _ in cells]]
    for p in range(P.size):
        keeps.append([[c for c, g in enumerate(cs) if p not in g.image] for cs in cells])
    keeps.append([range((len(cs) + 1) // 2) for cs in cells])
    return keeps


class TestGatherTables:
    @pytest.mark.parametrize(
        "kind,d,P", GATHER_CASES, ids=[f"{k}{d}-{P.size}" for k, d, P in GATHER_CASES]
    )
    def test_tables_equal_the_per_cell_reference(self, kind, d, P):
        site = gather_site(kind, d)
        X = ps.representable(site, P)
        cells, actions = reference_representable(site, P)
        assert X.cells == cells and X.actions == actions
        for keep in sub_keeps(site, P):
            try:
                expected = reference_subpresheaf(X, keep)
            except InvariantViolation:
                with pytest.raises(InvariantViolation, match="not closed"):
                    ps.subpresheaf(X, keep)
                continue
            sub, _ = ps.subpresheaf(X, keep)
            assert (sub.cells, sub.actions) == expected

    @pytest.mark.parametrize(
        "kind,d,P", GATHER_CASES, ids=[f"{k}{d}-{P.size}" for k, d, P in GATHER_CASES]
    )
    def test_generator_tables_fix_the_presheaf(self, kind, d, P):
        site = gather_site(kind, d)
        X = ps.representable(site, P)
        keys = {(i, i, h) for i, h in enumerate(site.identity_index)} | set(site.generators)
        assert ps.Presheaf(site, X.cells, {key: X.actions[key] for key in keys}) == X
        assert ps.Presheaf(site, X.cells, {g: X.actions[g] for g in site.generators}) == X

    def test_edge_site_uses_short_gathers(self):
        site = ps.PosetSite(EDGE_SITE_OBJECTS)
        lengths = {len(f.image) for row in site.homs for hs in row for f in hs}
        assert {0, 1} <= lengths
        assert ps.representable(site, EMPTY).cells == (1, 0, 0, 0)

    def test_selection_that_is_not_closed_is_rejected(self):
        X = ps.representable(ps.delta_site(1), chain(1))
        # the edge 0->1 without its endpoint 1
        with pytest.raises(InvariantViolation, match="not closed"):
            ps.subpresheaf(X, [[0], [1]])

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_picker_gathers_every_length(self, n):
        positions = tuple(range(n - 1, -1, -1))
        t = (10, 11, 12)
        assert ps._picker(positions)(t) == tuple(t[x] for x in positions)


COMPOSITE_SITES = (
    [("delta", d) for d in range(6)] + [("box", d) for d in range(3)] + [("edge", None)]
)
# steps: the sum over generators g of the non-identity homs into dom g
STEP_COUNTS = {("delta", 0): 0, ("delta", 1): 6, ("delta", 2): 72, ("delta", 3): 460,
               ("delta", 4): 2400, ("delta", 5): 11480,
               ("box", 0): 0, ("box", 1): 6, ("box", 2): 448}


def site_homs(site):
    return [(i, j, h) for i, row in enumerate(site.homs) for j, hs in enumerate(row)
            for h in range(len(hs))]


def site_steps(site):
    """The site's steps as (p, w, c) triples, in order."""
    steps = iter(site.steps)
    return list(zip(steps, steps, steps))


def identity_keys(site):
    return {(i, i, h) for i, h in enumerate(site.identity_index)}


def derived_homs(site):
    """The homs that are neither identities nor generators, in the order the
    steps first reach them."""
    given = identity_keys(site) | set(site.generators)
    reached = [site.hom_keys[c] for _, _, c in site_steps(site)]
    return [key for key in dict.fromkeys(reached) if key not in given]


def drop_hom(site):
    """Leave the last hom the steps reach unreached: drop every step into or
    out of it.  Every other hom keeps the step that first reaches it, since
    that step comes earlier.  Returns its key."""
    x = site.hom_keys.index(derived_homs(site)[-1])
    kept = [t for t in site_steps(site) if x not in t[1:]]
    site.steps = tuple(v for t in kept for v in t)
    return site.hom_keys[x]


class TestCompositeTable:
    """The site's steps: each is a generator g, a hom w into dom g and the
    position of their composite g.w, so together they are the table of
    composites that Presheaf.validate derives and checks along."""

    @pytest.mark.parametrize("kind,d", COMPOSITE_SITES, ids=[f"{k}{d}" for k, d in COMPOSITE_SITES])
    def test_entries_are_the_composites(self, kind, d):
        site = gather_site(kind, d)
        for p, w, c in site_steps(site):
            j, k, b = site.generators[p]
            i, j2, a = site.hom_keys[w]
            assert j2 == j
            g, f = site.homs[j][k][b], site.homs[i][j][a]
            assert site.hom_keys[c] == (i, k, site.hom_index(i, k, compose(g, f).image))
        # each pair of a generator and a non-identity hom into its domain, once
        pairs = [(p, w) for p, w, _ in site_steps(site)]
        identities = identity_keys(site)
        expected = {
            (p, x) for p, (j, _, _) in enumerate(site.generators)
            for x, key in enumerate(site.hom_keys) if key[1] == j and key not in identities
        }
        assert len(pairs) == len(set(pairs)) and set(pairs) == expected
        if (kind, d) in STEP_COUNTS:
            assert len(pairs) == STEP_COUNTS[(kind, d)]

    @pytest.mark.parametrize("kind,d", COMPOSITE_SITES, ids=[f"{k}{d}" for k, d in COMPOSITE_SITES])
    def test_word_order_writes_each_other_hom_once(self, kind, d):
        # each step starts from a generator or from a hom an earlier step
        # reached, and the steps reach every other hom
        site = gather_site(kind, d)
        built = {site.hom_keys.index(g) for g in site.generators}
        for _, w, c in site_steps(site):
            assert w in built
            built.add(c)
        reached = {site.hom_keys[x] for x in built}
        assert reached | identity_keys(site) == set(site_homs(site))

    def test_delta4_word_count(self):
        site = ps.delta_site(4)
        assert len(site_homs(site)) == 456 and len(site.generators) == 24
        assert len(site_steps(site)) == 2400
        assert len(derived_homs(site)) == 456 - 5 - 24 == 427

    def test_unreached_hom_is_rejected(self):
        # a hom no step reaches gets no table from the generator tables, so
        # a presheaf given by them lacks it
        site = ps.PosetSite([chain(0), chain(1), chain(2)])
        i, k, c = drop_hom(site)
        missing = rf"missing or misshapen action table \({i},{k},{c}\)"
        with pytest.raises(InvariantViolation, match=missing):
            ps.representable(site, chain(1))

    def test_unreached_hom_is_rejected_under_python_O(self):
        src = os.path.dirname(os.path.dirname(ps.__file__))
        tests = os.path.dirname(__file__)
        path = os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", UNREACHED_UNDER_O],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["InvariantViolation", "1"]

    def test_corruptions_get_the_reference_verdict(self):
        # one-entry corruptions of generator-only and of full-table inputs:
        # Presheaf's verdict and completed tables equal those of derivation
        # by compose followed by the all-pairs check
        rng = random.Random(20261018)
        tried = rejected = 0
        for X in sample_presheaves()[:6]:
            generator_only = {g: X.actions[g] for g in X.site.generators}
            for given in (generator_only, X.actions):
                keys = [k for k in sorted(given) if given[k] and X.cells[k[0]] >= 2]
                for _ in range(100):
                    key = rng.choice(keys)
                    tab = given[key]
                    actions = dict(given)
                    actions[key] = replace_entry(
                        tab, rng.randrange(len(tab)), rng.randrange(X.cells[key[0]] - 1)
                    )
                    reference = reference_completion(X.site, X.cells, actions)
                    try:
                        Y = ps.Presheaf(X.site, X.cells, actions)
                    except InvariantViolation:
                        assert not full_pair_functorial(reference), (X, key)
                        rejected += 1
                    else:
                        assert full_pair_functorial(reference), (X, key)
                        assert Y.actions == reference.actions
                    tried += 1
        assert tried == 1200 and 0 < rejected < tried


@lru_cache(maxsize=None)
def compose_words(site):
    """Each hom other than the identities and generators, once, as (g, w, u)
    with u = g.w by compose, where w is a generator or an earlier u; found
    breadth first from the generators."""
    known = identity_keys(site) | set(site.generators)
    words, frontier = [], list(site.generators)
    while frontier:
        new = []
        for i, j, a in frontier:
            for j2, k, b in site.generators:
                if j2 != j:
                    continue
                image = compose(site.homs[j][k][b], site.homs[i][j][a]).image
                u = (i, k, site.hom_index(i, k, image))
                if u not in known:
                    known.add(u)
                    words.append(((j, k, b), (i, j, a), u))
                    new.append(u)
        frontier = new
    return tuple(words)


def reference_completion(site, cells, actions):
    """Unvalidated presheaf with the missing identity tables and the missing
    tables X(g.w) = X(w)X(g) along compose_words filled in."""
    tables = dict(actions)
    for i, h in enumerate(site.identity_index):
        tables.setdefault((i, i, h), tuple(range(cells[i])))
    for g, w, u in compose_words(site):
        if u not in tables:
            tables[u] = tuple(tables[w][x] for x in tables[g])
    return ps.Presheaf(site, cells, tables, validate=False)


UNREACHED_UNDER_O = """
import sys
from posetcat import presheaf as ps
from posetcat.errors import InvariantViolation
from posetcat.poset import chain
from test_presheaf import drop_hom
site = ps.PosetSite([chain(0), chain(1), chain(2)])
drop_hom(site)
try:
    ps.representable(site, chain(1))
    print("accepted")
except InvariantViolation as exc:
    print(type(exc).__name__)
print(sys.flags.optimize)
"""


# Under python -O: each bad table must still raise InvariantViolation.
RANGE_CHECK_UNDER_O = """
import sys
from posetcat import presheaf as ps
from posetcat.errors import InvariantViolation
from posetcat.poset import chain
X = ps.representable(ps.delta_site(1), chain(1))
for value in (-1, X.cells[0]):
    actions = dict(X.actions)
    actions[(0, 1, 0)] = (value,) + actions[(0, 1, 0)][1:]
    try:
        ps.Presheaf(X.site, X.cells, actions)
        print("accepted")
    except InvariantViolation as exc:
        print(type(exc).__name__, exc)
print(sys.flags.optimize)
"""


class TestRangeCheck:
    @pytest.mark.parametrize("value", [-1, "count"])
    def test_entry_out_of_range_rejected(self, value):
        X = ps.representable(ps.delta_site(1), chain(1))
        key = (0, 1, 0)
        value = X.cells[0] if value == "count" else value
        actions = dict(X.actions)
        actions[key] = (value,) + actions[key][1:]
        with pytest.raises(InvariantViolation, match=r"\(0,1,0\) out of range"):
            ps.Presheaf(X.site, X.cells, actions)

    def test_largest_entry_accepted(self):
        X = ps.representable(ps.delta_site(1), chain(1))
        assert max(X.actions[(0, 1, 0)]) == X.cells[0] - 1
        X.validate()

    def test_empty_tables_at_zero_cell_levels_accepted(self):
        site = ps.delta_site(1)
        empty = {(i, j, h): () for i in range(2) for j in range(2)
                 for h in range(len(site.homs[i][j]))}
        assert ps.Presheaf(site, [0, 0], empty).cells == (0, 0)
        # one cell on the empty poset, none on the others: empty tables
        # into a nonempty level as well
        X = ps.representable(ps.PosetSite(EDGE_SITE_OBJECTS), EMPTY)
        assert X.actions[(0, 1, 0)] == () and X.actions[(0, 0, 0)] == (0,)

    def test_rejections_hold_under_python_O(self):
        src = os.path.dirname(os.path.dirname(ps.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", RANGE_CHECK_UNDER_O],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-1] == "1"
        assert lines[:-1] == ["InvariantViolation action table (0,1,0) out of range"] * 2


class TestRepresentable:
    def test_box_counts_for_arrow(self):
        X = ps.representable(ps.box_site(2), chain(1))
        assert X.cells == (2, 3, 6)

    def test_terminal_presheaf(self):
        X = ps.representable(ps.delta_site(2), chain(0))
        assert X.cells == (1, 1, 1)

    def test_triangulated_square_counts(self):
        X = ps.representable(ps.delta_site(2), interval_power(2))
        assert X.cells == (4, 9, 16)

    def test_functoriality_is_validated(self):
        X = ps.representable(ps.delta_site(2), chain(1))
        X.validate()


class TestTriangulate:
    @pytest.mark.parametrize("n", range(0, 4))
    def test_counts(self, n):
        X = ps.triangulate(n, 3)
        assert X.cells == tuple((m + 2) ** n for m in range(4))

    def test_terminal_case(self):
        assert ps.triangulate(0, 2).cells == (1, 1, 1)

    def test_equals_representable(self):
        assert ps.triangulate(2, 2) == ps.representable(
            ps.delta_site(2), interval_power(2)
        )

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            ps.triangulate(5, 2)


class TestSimplex:
    @pytest.mark.parametrize("n, d", [(0, 0), (1, 3), (3, 2), (4, 4)])
    def test_built_once_per_truncation(self, n, d):
        assert ps.simplex(n, d) is ps.simplex(n, d)

    @pytest.mark.parametrize("n, d", [(0, 2), (2, 2), (3, 1), (4, 4)])
    def test_equals_the_uncached_representable(self, n, d):
        X = ps.simplex(n, d)
        Y = ps.representable(ps.delta_site(d), chain(n))
        assert X is not Y
        assert X.cells == Y.cells and X.actions == Y.actions

    def test_horns_and_squares_leave_it_unchanged(self):
        X = ps.simplex(4, 4)
        cells, actions = X.cells, dict(X.actions)
        for I in [{0}, {1, 3}, {0, 2, 4}, {0, 1, 2, 3}]:
            assert ps.horn(4, I, 4).target is X
            for i in sorted(I):
                ps.horn_attachment_square(4, I, i)
        assert X.cells == cells and X.actions == actions
        assert X == ps.representable(ps.delta_site(4), chain(4))


class TestHorn:
    def test_vertex_horn(self):
        incl = ps.horn(1, {0})
        assert incl.source.cells[0] == 1 and incl.target.cells[0] == 2

    def test_classical_two_horn(self):
        incl = ps.horn(2, {1, 2})
        assert incl.source.cells[1] == 5 and incl.target.cells[1] == 6

    def test_single_face_horn(self):
        incl = ps.horn(2, {0})
        assert incl.source.cells[1] == 3

    def test_bad_index_sets(self):
        with pytest.raises(BadIndexSet):
            ps.horn(2, {0, 1, 2})
        with pytest.raises(BadIndexSet):
            ps.horn(2, set())
        with pytest.raises(BadIndexSet):
            ps.horn(2, {5})

    def test_inclusion_is_mono(self):
        for I in [{0}, {1}, {0, 2}, {1, 2}]:
            assert ps.is_mono(ps.horn(2, I))

    def test_horn_closed_under_actions(self):
        incl = ps.horn(3, {0, 1})
        incl.source.validate()
        incl.validate()


class TestIsMono:
    def test_fold_map_not_mono(self):
        X = ps.representable(ps.delta_site(1), chain(0))
        XX = coproduct(X, X)
        fold = ps.PresheafMap(XX, X, [(0, 0), (0, 0)])
        assert not ps.is_mono(fold)

    def test_identity_is_mono(self):
        X = ps.triangulate(1, 1)
        assert ps.is_mono(identity_psmap(X))


class TestPushout:
    def test_along_identity_gives_other_leg(self):
        A = ps.representable(ps.delta_site(1), chain(1))
        C = ps.representable(ps.delta_site(1), chain(2))
        g_comp = []
        for i, Q in enumerate(ps.delta_site(1).objects):
            idx = {f.image: c for c, f in enumerate(catalog.monotone_maps(Q, chain(2)))}
            g_comp.append(
                tuple(idx[f.image] for f in catalog.monotone_maps(Q, chain(1)))
            )
        g = ps.PresheafMap(A, C, g_comp)
        P, in_b, in_c = ps.pushout(identity_psmap(A), g)
        assert P.cells == C.cells
        assert all(len(set(c)) == len(c) for c in in_c.components)

    def test_coproduct_from_empty_source(self):
        site = ps.delta_site(1)
        empty = ps.Presheaf(
            site, [0, 0], {k: () for k in ps.representable(site, chain(0)).actions}
        )
        B = ps.representable(site, chain(1))
        C = ps.representable(site, chain(0))
        f = ps.PresheafMap(empty, B, [(), ()])
        g = ps.PresheafMap(empty, C, [(), ()])
        P, _, _ = ps.pushout(f, g)
        assert P.cells == tuple(b + c for b, c in zip(B.cells, C.cells))

    def test_quotient_must_be_well_defined_on_generators(self):
        # a leg that is not natural: the vertex of y[0] goes to vertex 0 of
        # y[1], its degenerate edge to the degenerate edge at vertex 1; the
        # other leg is the identity, so each face of the glued edge would be
        # both vertex 1 and the glued vertex 0
        site = ps.delta_site(1)
        A, B = ps.representable(site, chain(0)), ps.representable(site, chain(1))
        edges = [f.image for f in catalog.monotone_maps(chain(1), chain(1))]
        f = ps.PresheafMap(A, B, [(0,), (edges.index((1, 1)),)], validate=False)
        with pytest.raises(InvariantViolation, match="pushout action not well defined"):
            ps.pushout(f, identity_psmap(A))

    def test_source_mismatch(self):
        A = ps.representable(ps.delta_site(1), chain(1))
        B = ps.representable(ps.delta_site(1), chain(0))
        with pytest.raises(SiteMismatch):
            ps.pushout(identity_psmap(A), identity_psmap(B))


class TestHornAttachmentSquares:
    @pytest.mark.parametrize(
        "I", [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}]
    )
    def test_dim2_all_choices(self, I):
        for i in sorted(I):
            counts = ps.horn_attachment_square(2, I, i)
            incl = ps.horn(2, I)
            assert tuple(counts[l] for l in sorted(counts)) == incl.source.cells

    def test_dim3_sample(self):
        for I in [{0, 1}, {1, 2, 3}, {0, 3}]:
            for i in sorted(I):
                ps.horn_attachment_square(3, I, i)

    def test_requires_i_in_I(self):
        with pytest.raises(BadIndexSet):
            ps.horn_attachment_square(2, {0}, 1)

    def test_unnatural_comparison_is_rejected(self, monkeypatch):
        # swapping cells 0 and 1 of the pushout at the top level in both
        # cocone maps keeps every comparison component a bijection, but the
        # comparison is no longer natural
        real_pushout = ps.pushout

        def swapped_pushout(f, g):
            P, in_b, in_c = real_pushout(f, g)
            top = len(P.cells) - 1
            swap = {0: 1, 1: 0}

            def swapped(leg):
                comps = list(leg.components)
                comps[top] = tuple(swap.get(v, v) for v in comps[top])
                return ps.PresheafMap(leg.source, P, comps, validate=False)

            return P, swapped(in_b), swapped(in_c)

        monkeypatch.setattr(ps, "pushout", swapped_pushout)
        with pytest.raises(InvariantViolation, match="naturality fails"):
            ps.horn_attachment_square(3, [1, 2], 1)


class TestLeftKan:
    def test_representable_oracle(self):
        for m in range(0, 3):
            X = ps.representable(ps.delta_site(m), chain(m))
            for M in [chain(0), chain(1), interval_power(2), diamond()]:
                res = ps.left_kan(X, M)
                assert res.count == catalog.count_monotone_maps(M, chain(m))

    def test_spec_example_square_arrow(self):
        X = ps.representable(ps.delta_site(1), chain(1))
        assert ps.left_kan(X, interval_power(2)).count == 6

    def test_terminal_presheaf_value_one(self):
        X = ps.representable(ps.delta_site(0), chain(0))
        for M in [chain(0), interval_power(2), diamond()]:
            assert ps.left_kan(X, M).count == 1

    def test_horn_value(self):
        lam = ps.horn(2, {1, 2})
        assert ps.left_kan(lam.source, interval_power(1)).count == 5

    def test_incomplete_target_rejected(self):
        X = ps.representable(ps.delta_site(1), chain(1))
        with pytest.raises(NotComplete):
            ps.left_kan(X, validate_poset({(0, 2), (1, 2)}, 3))

    def test_truncation_window(self):
        X = ps.representable(ps.delta_site(1), chain(1))
        ps.left_kan(X, chain(1), trunc=1)
        ps.left_kan(X, chain(1), trunc=3)
        with pytest.raises(BoundExceeded):
            ps.left_kan(X, chain(1), trunc=4)

    def test_every_truncation_gives_the_same_labels(self):
        for m in range(0, 3):
            X = ps.representable(ps.delta_site(m), chain(m))
            for M in [chain(1), interval_power(2), diamond()]:
                runs = [ps.left_kan(X, M, trunc=D) for D in (m, m + 1, m + 2)]
                cells = [
                    (k, pi, c)
                    for k in range(m + 1)
                    for pi in range(len(catalog.monotone_maps(M, chain(k))))
                    for c in range(X.cells[k])
                ]
                labels = {(r.count, tuple(r.component(*cell) for cell in cells)) for r in runs}
                assert len(labels) == 1

    def test_non_chain_site_rejected(self):
        # the dim-1 cube site IS the dim-1 chain site; dim 2 is not
        X = ps.representable(ps.box_site(2), chain(1))
        with pytest.raises(SiteMismatch):
            ps.left_kan(X, chain(1))


class TestLeftKanMap:
    def test_horn_inclusion_injective_five_into_six(self):
        mapping, src, tgt = ps.left_kan_map(ps.horn(2, {1, 2}), interval_power(1))
        assert (src.count, tgt.count) == (5, 6)
        assert len(set(mapping)) == 5

    def test_identity_induces_identity(self):
        X = ps.representable(ps.delta_site(1), chain(1))
        mapping, src, tgt = ps.left_kan_map(identity_psmap(X), diamond())
        assert mapping == tuple(range(src.count)) and src.count == tgt.count

    def test_face_inclusion_on_diamond(self):
        delta1 = MonotoneMap(chain(1), chain(2), (0, 2))
        F = representable_map(ps.delta_site(2), delta1)
        assert ps.is_mono(F)
        M = diamond()
        mapping, src, tgt = ps.left_kan_map(F, M)
        assert src.count == catalog.count_monotone_maps(M, chain(1))
        assert tgt.count == catalog.count_monotone_maps(M, chain(2))
        assert len(set(mapping)) == src.count

    def test_levelwise_monos_go_to_injections(self):
        # colimit-over-comma preserves monomorphisms, instance scale
        monos = [ps.horn(2, I) for I in ({0}, {0, 1}, {1, 2})]
        monos.append(
            representable_map(ps.delta_site(2), MonotoneMap(chain(0), chain(2), (1,)))
        )
        for F in monos:
            assert ps.is_mono(F)
            for M in [chain(1), interval_power(2)]:
                mapping, src, _ = ps.left_kan_map(F, M)
                assert len(set(mapping)) == src.count


def all_phi_kan(X, M, D):
    """The all-phi engine the normal-form one replaced, kept as a reference.

    One cell (k, phi, c) for every monotone phi: M -> [k] with k <= D and
    every c in X_k, unions along every generator of the site.  Returns the
    component count and the label of every cell.
    """
    site = X.site
    d = len(site.objects) - 1
    phis = [
        {f.image: idx for idx, f in enumerate(catalog.monotone_maps(M, chain(k)))}
        for k in range(D + 1)
    ]
    phi_lists = [list(p.keys()) for p in phis]
    total = 0
    starts = {}
    for k in range(min(D, d) + 1):
        ck = X.cells[k]
        if ck == 0:
            continue
        for pi in range(len(phi_lists[k])):
            starts[(k, pi)] = total
            total += ck
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k, k2, h in site.generators:
        if X.cells[k] == 0 or X.cells[k2] == 0:
            continue
        tab = X.actions[(k, k2, h)]
        uimg = site.homs[k][k2][h].image
        for pi, phi in enumerate(phi_lists[k]):
            phi2 = tuple(uimg[v] for v in phi)
            pi2 = phis[k2][phi2]
            base = starts[(k, pi)]
            base2 = starts[(k2, pi2)]
            for c2, c in enumerate(tab):
                ra, rb = find(base + c), find(base2 + c2)
                if ra != rb:
                    parent[rb] = ra
    label_of_root = {}
    labels = {}
    for (k, pi), base in starts.items():
        for c in range(X.cells[k]):
            labels[(k, pi, c)] = label_of_root.setdefault(find(base + c), len(label_of_root))
    return len(label_of_root), labels


def normal_form_count(X, M):
    """|i_!X(M)| = sum over j of |Surj(M, [j])| * |X_j^nd|.

    A cell of X_j is nondegenerate when no codegeneracy [j] ->> [j-1] has it
    in the image of its action table.  Reads only the action tables and
    catalog.monotone_maps.
    """
    site = X.site
    total = 0
    for j in range(len(site.objects)):
        degenerate = set()
        if j:
            for h, s in enumerate(site.homs[j][j - 1]):
                if set(s.image) == set(range(j)):
                    degenerate.update(X.actions[(j, j - 1, h)])
        surjections = sum(
            1 for f in catalog.monotone_maps(M, chain(j)) if set(f.image) == set(range(j + 1))
        )
        total += surjections * (X.cells[j] - len(degenerate))
    return total


def horn_index_sets(n):
    return [
        {v for v in range(n + 1) if bits >> v & 1}
        for bits in range(1, (1 << (n + 1)) - 1)
    ]


@lru_cache(maxsize=None)
def kan_families():
    """Presheaves on chain sites, each family with maps between its members.

    The pushouts are the ones horn_attachment_square builds at n <= 3,
    recorded on their way through ps.pushout together with their cocone maps.
    """
    reps = [ps.representable(ps.delta_site(m), chain(m)) for m in range(4)]
    site3 = ps.delta_site(3)
    rep_maps = [representable_map(site3, site3.homs[i][j][h]) for i, j, h in site3.generators]
    horns = [ps.horn(n, I) for n in range(1, 4) for I in horn_index_sets(n)]
    tris = [ps.triangulate(n, d) for n in range(3) for d in range(1, 4)]
    box = ps.box_site(2)
    tri_maps = [
        representable_map(ps.delta_site(2), box.homs[i][j][h]) for i, j, h in box.generators
    ]
    made = []
    original = ps.pushout

    def recording(f, g):
        made.append(original(f, g))
        return made[-1]

    ps.pushout = recording
    try:
        for n in range(1, 4):
            for I in horn_index_sets(n):
                for i in sorted(I):
                    ps.horn_attachment_square(n, I, i)
    finally:
        ps.pushout = original
    return {
        "representables": (reps, rep_maps),
        "horns": ([incl.source for incl in horns], horns),
        "triangulations": (tris, tri_maps),
        "pushouts": (
            [P for P, _, _ in made],
            [F for _, in_b, in_c in made for F in (in_b, in_c)],
        ),
    }


def kan_lattices():
    return [cp.poset for s in range(1, 6) for cp in catalog.enumerate_lattices(s)]


@pytest.fixture(scope="module")
def kan_runs():
    """Results of kan_run, shared by content: many families repeat a presheaf."""
    return {}


def kan_run(runs, X, M):
    """left_kan(X, M), the reference labels, and the reference label -> its
    label, read through component() on every (k, phi, c), surjective phi or
    not."""
    key = (X.site, X.cells, tuple(sorted(X.actions.items())), M)
    if key not in runs:
        result = ps.left_kan(X, M)
        count, labels = all_phi_kan(X, M, len(X.site.objects))
        assert result.count == count
        bijection = {}
        for cell, label in labels.items():
            assert bijection.setdefault(label, result.component(*cell)) == result.component(*cell)
        assert sorted(bijection.values()) == list(range(count))
        runs[key] = result, labels, bijection
    return runs[key]


KAN_FAMILIES = ["representables", "horns", "triangulations", "pushouts"]


class TestKanNormalForm:
    def test_family_sizes(self):
        families = kan_families()
        sizes = {name: tuple(map(len, families[name])) for name in KAN_FAMILIES}
        assert sizes == {
            "representables": (4, 15),
            "horns": (22, 22),
            "triangulations": (9, 16),
            "pushouts": (39, 78),
        }
        assert len(kan_lattices()) == 10

    @pytest.mark.parametrize("family", KAN_FAMILIES)
    def test_count_equals_normal_form_oracle(self, family):
        for X in kan_families()[family][0]:
            for M in kan_lattices():
                assert ps.left_kan(X, M).count == normal_form_count(X, M)

    @pytest.mark.parametrize("family", KAN_FAMILIES)
    def test_partition_equals_all_phi_reference(self, family, kan_runs):
        for X in kan_families()[family][0]:
            for M in kan_lattices():
                kan_run(kan_runs, X, M)

    @pytest.mark.parametrize("family", KAN_FAMILIES)
    def test_maps_equal_all_phi_reference(self, family, kan_runs):
        for F in kan_families()[family][1]:
            for M in kan_lattices():
                _, src_labels, src_bijection = kan_run(kan_runs, F.source, M)
                _, tgt_labels, tgt_bijection = kan_run(kan_runs, F.target, M)
                mapping, _, _ = ps.left_kan_map(F, M)
                assert len(mapping) == len(src_bijection)
                for (k, pi, c), label in src_labels.items():
                    image = tgt_labels[(k, pi, F.components[k][c])]
                    assert mapping[src_bijection[label]] == tgt_bijection[image]

    def test_component_factors_non_surjective_phi(self):
        # phi: [1] -> [2] with image {0, 2} is the coface missing 1 after the
        # identity, so (2, phi, c) lies in the component of (1, id, X(d1) c)
        X = ps.representable(ps.delta_site(2), chain(2))
        result = ps.left_kan(X, chain(1))
        phi = result.phi_index(2, MonotoneMap(chain(1), chain(2), (0, 2)))
        identity = result.phi_index(1, MonotoneMap(chain(1), chain(1), (0, 1)))
        coface = X.site.hom_index(1, 2, (0, 2))
        for c in range(X.cells[2]):
            face = X.action(1, 2, coface)[c]
            assert result.component(2, phi, c) == result.component(1, identity, face)
        with pytest.raises(IndexError):
            result.component(2, phi, X.cells[2])


class TestNatHomViaRetract:
    def test_singletons(self):
        maps = ps.nat_hom_via_retract(chain(0), chain(0), 2)
        assert len(maps) == 1

    def test_chain_two_to_arrow(self):
        maps = ps.nat_hom_via_retract(chain(2), chain(1), 4)
        assert len(maps) == 4

    def test_diamond_to_arrow(self):
        maps = ps.nat_hom_via_retract(diamond(), chain(1), 4)
        assert len(maps) == catalog.count_monotone_maps(diamond(), chain(1)) == 6

    def test_matches_enumeration_exactly(self):
        lats = [cp.poset for s in (1, 2, 3) for cp in catalog.enumerate_lattices(s)]
        for L, L2 in product(lats, lats):
            maps = ps.nat_hom_via_retract(L, L2, 3)
            direct = {f.image for f in catalog.enumerate_monotone_maps(L, L2)}
            assert {f.image for f in maps} == direct

    def test_dimension_bound(self):
        with pytest.raises(BoundExceeded):
            ps.nat_hom_via_retract(diamond(), chain(1), 3)


class TestContractingHomotopy:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_endpoints(self, n):
        H = ps.contracting_homotopy(n)
        for k in range(n + 1):
            assert H.image[2 * k] == 0  # (0, k) -> 0
            assert H.image[2 * k + 1] == k  # (1, k) -> k

    def test_spec_table_n1(self):
        H = ps.contracting_homotopy(1)
        assert H.image == (0, 0, 0, 1)


class TestJson:
    def test_round_trip_representable(self):
        X = ps.representable(ps.delta_site(2), chain(1))
        assert ps.presheaf_from_json(ps.presheaf_to_json(X)) == X

    def test_round_trip_horn(self):
        X = ps.horn(2, {0, 1}).source
        data = ps.presheaf_to_json(X)
        assert data["site"] == {"kind": "delta", "dim": 2}
        assert ps.presheaf_from_json(data) == X

    def test_custom_site_round_trip(self):
        site = ps.PosetSite([chain(0), interval_power(2)])
        X = ps.representable(site, chain(1))
        back = ps.presheaf_from_json(ps.presheaf_to_json(X))
        assert back.cells == X.cells and back.actions == X.actions

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {"site": [1], "cells": [], "actions": {}},
            {"site": {"kind": "simplex", "dim": 1}, "cells": [1, 1], "actions": {}},
            {"site": {"dim": 1}, "cells": [1, 1], "actions": {}},
            {"site": {"kind": "delta", "dim": 1.0}, "cells": [1, 1], "actions": {}},
            {"site": {"kind": "box"}, "cells": [1, 1], "actions": {}},
            {"site": {"kind": "custom"}, "cells": [], "actions": {}},
            {"site": {"kind": "delta", "dim": 1}, "cells": [1, True], "actions": {}},
            {"site": {"kind": "delta", "dim": 1}, "actions": {}},
            {"site": {"kind": "delta", "dim": 1}, "cells": [1, 1]},
            {"site": {"kind": "delta", "dim": 1}, "cells": [1, 1], "actions": {"0,0": [0]}},
            {"site": {"kind": "delta", "dim": 1}, "cells": [1, 1], "actions": {"0,0,0,0": [0]}},
            {"site": {"kind": "delta", "dim": 1}, "cells": [1, 1], "actions": {"0, 0,0": [0]}},
            {"site": {"kind": "delta", "dim": 1}, "cells": [1, 1], "actions": {"0,0,-1": [0]}},
            {"site": {"kind": "delta", "dim": 1}, "cells": [1, 1], "actions": {"0,0,0": [None]}},
            # a part longer than int() parses
            {"site": {"kind": "delta", "dim": 1}, "cells": [1, 1], "actions": {"1" * 5000 + ",0,0": [0]}},
        ],
    )
    def test_malformed_input_rejected(self, data):
        with pytest.raises(SchemaError):
            ps.presheaf_from_json(data)

    def test_custom_site_objects_are_bounded(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("site built from an oversized object")

        # End of any 257-element poset is far too large to materialize
        monkeypatch.setattr(ps, "PosetSite", unreachable)
        objects = [{"size": JSON_POSET_BOUND + 1, "relation": []}]
        with pytest.raises(BoundExceeded):
            ps.site_from_json({"kind": "custom", "objects": objects})

    def test_custom_site_homs_are_bounded(self, monkeypatch):
        # End(antichain(2)) has 4 maps: the site loads at bound 4, not at 3
        site = {"kind": "custom", "objects": [poset_to_json(antichain(2))]}
        monkeypatch.setattr(ps, "SITE_HOM_BOUND", 4)
        assert ps.site_from_json(site) == ps.PosetSite([antichain(2)])
        monkeypatch.setattr(ps, "SITE_HOM_BOUND", 3)
        with pytest.raises(BoundExceeded, match="more than 3 homs"):
            ps.site_from_json(site)

    @pytest.mark.parametrize("key", ["0,1,9", "5,5,5"])
    def test_action_key_of_no_hom_rejected(self, key):
        # the document of y[0] + y[0] loads as it is, and stops loading once
        # it names a hom the site does not have, in range ("0,1,9") or not
        X = ps.representable(ps.delta_site(1), chain(0))
        data = ps.presheaf_to_json(coproduct(X, X))
        assert ps.presheaf_from_json(data) == coproduct(X, X)
        data["actions"][key] = [1, 1]
        with pytest.raises(InvariantViolation, match="homs the site does not have"):
            ps.presheaf_from_json(data)

    @pytest.mark.parametrize("alias", ["01,0,0", "1,0,00", "\uff11,0,0", "\u0661,0,0"])
    def test_second_spelling_of_a_key_rejected(self, alias):
        # the right table of hom (1,0,0) under another spelling of its key
        # does not stand in for a wrong one under "1,0,0"
        X = ps.representable(ps.delta_site(1), chain(1))
        data = ps.presheaf_to_json(X)
        data["actions"][alias] = data["actions"]["1,0,0"]
        data["actions"]["1,0,0"] = [1, 1, 1]
        with pytest.raises(SchemaError, match="is not of the form"):
            ps.presheaf_from_json(data)

    def test_missing_word_table_rejected(self):
        # Presheaf completes a missing word table; a JSON document does not
        X = ps.representable(ps.delta_site(2), chain(1))
        i, k, c = derived_homs(X.site)[0]
        data = ps.presheaf_to_json(X)
        del data["actions"][f"{i},{k},{c}"]
        with pytest.raises(InvariantViolation, match=rf"missing action table \({i},{k},{c}\)"):
            ps.presheaf_from_json(data)

    def test_cell_counts_must_match_the_site(self):
        data = ps.presheaf_to_json(ps.representable(ps.delta_site(1), chain(1)))
        data["cells"].append(1)
        with pytest.raises(InvariantViolation, match="one cell count per site object"):
            ps.presheaf_from_json(data)


class TestValidationErrors:
    def test_broken_functoriality_caught(self):
        site = ps.delta_site(1)
        X = ps.representable(site, chain(1))
        actions = dict(X.actions)
        key = (0, 1, 0)
        tab = list(actions[key])
        tab[1], tab[2] = tab[2], tab[1]
        actions[key] = tuple(tab)
        with pytest.raises(Exception):
            ps.Presheaf(site, X.cells, actions)

    def test_broken_naturality_caught(self):
        X = ps.representable(ps.delta_site(1), chain(1))
        comps = [list(range(c)) for c in X.cells]
        comps[0] = [1, 0]
        with pytest.raises(Exception):
            ps.PresheafMap(X, X, comps)
