"""Finite presheaves over truncated poset-sites.

A site is a finite full subcategory of posets (e.g. the chains [0]..[d] or the
cubes [1]^0..[1]^d) with every hom-set materialized in enumeration order and a
set of generating homs found by greedy closure (on the chain site, exactly the
cofaces and codegeneracies).  A presheaf is given by a cell count per object
and its generator tables: a functor is fixed by its values on generators
(Mac Lane, Categories for the Working Mathematician, II.8).  The closure
that picks the generators records each pair of a generator g and a
non-identity hom w into its domain once, as a step (g, w, g.w).  Presheaf
runs the steps in order, one gather each: X(w)X(g) becomes the table of g.w
if that hom has none yet and is compared with it otherwise.  So the
generator tables fix the others, the law X(g.w) = X(w)X(g) is checked for
every generator g and hom w, a presheaf holds one table per hom, and a key
that names no hom of the site is rejected.  Naturality of maps between
presheaves, sub-presheaves, pushouts and the unions behind left Kan
extension are likewise checked or taken along generators only.  Action
tables are built and checked by gathers that run in C (itemgetter over a
cell index, see _picker), not one cell at a time.
Everything downstream (left Kan extension along the inclusion of chains
into complete posets, horns, pushouts) is finite and checked exhaustively
at construction time.  The standard simplex Delta[n] on the chain site
truncated at d is built and checked once per (n, d) by simplex(n, d) and
shared, like delta_site(d), by every horn and attachment square over it.

The left Kan extension i_!X(M) is computed over its normal form.  A monotone
phi: M -> [k] factors uniquely as a surjection M ->> [j] followed by an
injection [j] >-> [k], and by the Eilenberg-Zilber lemma every cell of X is
uniquely a degeneracy of a nondegenerate one, so i_!X(M) is the disjoint
union over j of Surj(M, [j]) x X_j^nd.  Its classes are found among the
cells over surjective phi, joined along codegeneracies only; a cell over any
other phi is in the class of (surj, X(inj) c).
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from . import catalog
from .errors import (
    BadIndexSet,
    BoundExceeded,
    InvariantViolation,
    NotComplete,
    SchemaError,
    SiteMismatch,
)
from .karoubi import retract_certificate
from .poset import (
    JSON_POSET_BOUND,
    MonotoneMap,
    Poset,
    _is_int,
    chain,
    induced_subposet,
    interval_power,
    is_complete,
    poset_from_json,
    poset_to_json,
)
from .poset import product as poset_product

DELTA_SITE_BOUND = 5
BOX_SITE_BOUND = 2
TRIANGULATE_BOUND = 4
HORN_DIM_BOUND = 4
# a custom site read from JSON materializes every hom-set; at most this many homs
SITE_HOM_BOUND = 1 << 16


def _picker(positions: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """t -> tuple(t[x] for x in positions), gathered in C by itemgetter.

    itemgetter returns a bare value for one position and needs at least one,
    so those lengths (the empty poset, [0], [1]^0) are wrapped.
    """
    if len(positions) >= 2:
        return itemgetter(*positions)
    if positions:
        x = positions[0]
        return lambda t: (t[x],)
    return lambda t: ()


class PosetSite:
    """Full subcategory of posets on a finite object list, homs materialized."""

    def __init__(self, objects: Sequence[Poset], kind: str = "custom"):
        self.kind = kind
        self.objects = tuple(objects)
        n = len(self.objects)
        self.homs = tuple(
            tuple(catalog.monotone_maps(self.objects[i], self.objects[j]) for j in range(n))
            for i in range(n)
        )
        self._index = [
            [{f.image: a for a, f in enumerate(self.homs[i][j])} for j in range(n)]
            for i in range(n)
        ]
        self.identity_index = tuple(
            self._index[i][i][tuple(range(self.objects[i].size))] for i in range(n)
        )
        # every hom as (i, j, h), in index order
        self.hom_keys = tuple(
            (i, j, h) for i in range(n) for j in range(n) for h in range(len(self.homs[i][j]))
        )
        self._close()

    def _close(self):
        """Pick the generators and record, as steps, how they compose.

        Candidates are visited by larger object, then non-endomorphisms first,
        then nearer objects first, then larger image first; a candidate becomes
        a generator only when the composites of the earlier generators miss
        it.  On the chain site this keeps exactly the cofaces and
        codegeneracies.

        Each pair of a generator g and a non-identity hom w into dom g is
        visited once: a new generator meets the homs reached before it, and
        each hom reached from then on, the generator first, meets every
        generator out of its codomain.  Sets generators, as (i, j, h), and
        steps, a flat tuple p0, w0, c0, p1, w1, c1, ... with one triple per
        visit: hom_keys[c] is g.w for the p-th generator g and w =
        hom_keys[w], where w is a generator or the c of an earlier step.
        Flat, because a tuple per step would cost 64 bytes more each; the
        positions are the int objects of one dict, so they are shared.
        Every hom other than the identities and generators is the c of a step.
        """
        n = len(self.objects)
        homs, index, keys = self.homs, self._index, self.hom_keys
        position = {key: x for x, key in enumerate(keys)}
        reached = bytearray(len(keys))
        for i, h in enumerate(self.identity_index):
            reached[position[(i, i, h)]] = 1
        into: list[list[int]] = [[] for _ in range(n)]  # reached non-identity homs by codomain
        leaving: list[list[int]] = [[] for _ in range(n)]  # generator numbers p by domain
        generators: list[tuple[int, int, int]] = []
        steps: list[int] = []
        fresh: list[int] = []  # homs reached but not yet met by the generators

        def step(p: int, w: int):
            _, k, b = generators[p]
            i, j, a = keys[w]
            image = homs[j][k][b].image
            c = position[(i, k, index[i][k][tuple(map(image.__getitem__, homs[i][j][a].image))])]
            steps.extend((p, w, c))
            if not reached[c]:
                reached[c] = 1
                fresh.append(c)

        def order(key):
            i, j, h = key
            return (max(i, j), i == j, abs(i - j), -len(set(homs[i][j][h].image)), key)

        for key in sorted(keys, key=order):
            g, j = position[key], key[0]
            if reached[g]:
                continue
            reached[g] = 1
            leaving[j].append(len(generators))
            generators.append(key)
            fresh.append(g)
            for w in into[j]:
                step(len(generators) - 1, w)
            while fresh:
                w = fresh.pop()
                cod = keys[w][1]
                into[cod].append(w)
                for p in leaving[cod]:
                    step(p, w)
        self.generators = tuple(generators)
        self.steps = tuple(steps)

    def hom_index(self, i: int, j: int, image: tuple[int, ...]) -> int:
        return self._index[i][j][image]

    def __eq__(self, other):
        return isinstance(other, PosetSite) and self.objects == other.objects

    def __hash__(self):
        return hash(self.objects)

    def __repr__(self):
        return f"PosetSite({self.kind}, sizes={[P.size for P in self.objects]})"


@lru_cache(maxsize=None)
def delta_site(d: int) -> PosetSite:
    """Truncated chain site with objects [0], [1], ..., [d]."""
    if d < 0:
        raise ValueError("dimension must be >= 0")
    if d > DELTA_SITE_BOUND:
        raise BoundExceeded(f"chain site capped at dimension {DELTA_SITE_BOUND}")
    return PosetSite([chain(k) for k in range(d + 1)], kind="delta")


@lru_cache(maxsize=None)
def box_site(d: int) -> PosetSite:
    """Truncated cube site with objects [1]^0, ..., [1]^d.

    Capped at BOX_SITE_BOUND: dimension 3 materializes |End([1]^3)| = 8000
    homs and an action table for each, and no benchmark workload measures a
    cube site yet; raise the cap together with one.
    """
    if d < 0:
        raise ValueError("dimension must be >= 0")
    if d > BOX_SITE_BOUND:
        raise BoundExceeded(f"cube site capped at dimension {BOX_SITE_BOUND}")
    return PosetSite([interval_power(k) for k in range(d + 1)], kind="box")


class Presheaf:
    """Set-valued contravariant functor on a site; cells are 0..count-1 labels."""

    def __init__(self, site: PosetSite, cells: Sequence[int], actions: dict, validate: bool = True):
        self.site = site
        self.cells = tuple(cells)
        self.actions = dict(actions)
        if validate:
            self.validate()

    def action(self, i: int, j: int, h: int) -> tuple[int, ...]:
        """Table of X(f): X(obj j) -> X(obj i) for f = homs[i][j][h]."""
        return self.actions[(i, j, h)]

    def validate(self):
        """Check the tables given, complete the others along the site's steps
        and check the laws; raise InvariantViolation on the first failure.

        Each key must name a hom, and each table given must have the right
        shape and range (by min/max) and be the identity at an identity.
        Every generator table must be given.  Then each step (p, w, c) of
        the site costs one C-level gather, X(w)X(g) for the p-th generator
        g: it becomes the table of c = g.w if that hom has none yet, and is
        compared with it otherwise.  The steps cover every pair of a
        generator g and a non-identity hom w into its domain, and at w an
        identity the law holds trivially, so X(g.w) = X(w)X(g) holds for
        every generator g and hom w.
        """
        site = self.site
        if len(self.cells) != len(site.objects):
            raise InvariantViolation("one cell count per site object required")
        actions = self.actions
        surplus = len(set(actions).difference(site.hom_keys))
        if surplus:
            raise InvariantViolation(f"{surplus} action table(s) for homs the site does not have")
        for (i, j, h), tab in actions.items():
            if len(tab) != self.cells[j]:
                raise InvariantViolation(f"missing or misshapen action table ({i},{j},{h})")
            if tab and (min(tab) < 0 or max(tab) >= self.cells[i]):
                raise InvariantViolation(f"action table ({i},{j},{h}) out of range")
        given = dict(actions)
        for i, h in enumerate(site.identity_index):
            identity = tuple(range(self.cells[i]))
            if given.setdefault((i, i, h), identity) != identity:
                raise InvariantViolation(f"identity law fails at object {i}")
        # tables[x] is the table of hom_keys[x]; None if not given, until derived
        tables = list(map(given.get, site.hom_keys))
        for key in site.generators:
            if key not in actions:
                raise InvariantViolation("missing or misshapen action table (%d,%d,%d)" % key)
        pick = [_picker(actions[key]) for key in site.generators]
        # X(g.w) = X(w)X(g) for generators g and all homs w gives X(u.w) =
        # X(w)X(u) for every hom u, by induction on the length of u as a word.
        steps = iter(site.steps)
        for p, w, c in zip(steps, steps, steps):
            tab = pick[p](tables[w])
            if tables[c] is None:
                tables[c] = tab
            elif tables[c] != tab:
                i, j, a = site.hom_keys[w]
                _, k, b = site.generators[p]
                raise InvariantViolation(f"composition law fails for ({i},{j},{k}) homs ({a},{b})")
        if None in tables:
            key = site.hom_keys[tables.index(None)]
            raise InvariantViolation("missing or misshapen action table (%d,%d,%d)" % key)
        self.actions = dict(zip(site.hom_keys, tables))

    def __eq__(self, other):
        return (
            isinstance(other, Presheaf)
            and self.site == other.site
            and self.cells == other.cells
            and self.actions == other.actions
        )

    def __repr__(self):
        return f"Presheaf(cells={list(self.cells)})"


class PresheafMap:
    """Natural transformation; one component table per site object."""

    def __init__(self, source: Presheaf, target: Presheaf, components: Sequence[Sequence[int]],
                 validate: bool = True):
        if source.site != target.site:
            raise SiteMismatch("natural transformations require a common site")
        self.source = source
        self.target = target
        self.components = tuple(tuple(c) for c in components)
        if validate:
            self.validate()

    def validate(self):
        site = self.source.site
        n = len(site.objects)
        if len(self.components) != n:
            raise InvariantViolation("one component per site object required")
        for i in range(n):
            comp = self.components[i]
            if len(comp) != self.source.cells[i]:
                raise InvariantViolation(f"component {i} has wrong length")
            if comp and (min(comp) < 0 or max(comp) >= self.target.cells[i]):
                raise InvariantViolation(f"component {i} out of range")
        # naturality squares paste along composites, so generators suffice;
        # both sides of each square are C-level gathers
        for i, j, h in site.generators:
            ax = self.source.actions[(i, j, h)]
            ay = self.target.actions[(i, j, h)]
            ci, cj = self.components[i], self.components[j]
            if _picker(cj)(ay) != _picker(ax)(ci):
                raise InvariantViolation(f"naturality fails at hom ({i},{j},{h})")

    def __eq__(self, other):
        return (
            isinstance(other, PresheafMap)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __repr__(self):
        return f"PresheafMap(cells={list(self.source.cells)} -> {list(self.target.cells)})"


def is_mono(F: PresheafMap) -> bool:
    """Levelwise injectivity (= monomorphism of presheaves)."""
    return all(len(set(c)) == len(c) for c in F.components)


# ---------------------------------------------------------------------------
# representables


def representable(site: PosetSite, P: Poset) -> Presheaf:
    """Cells at Q are the monotone maps Q -> P; action is precomposition.

    P need not be an object of the site (restricted representable).  The
    table of each generator f sends each cell g to the index of g.f: the
    image of g.f is gathered from g's image by an itemgetter on f's image,
    and looked up in the cell index, both in C.  Presheaf completes the
    other tables from these.
    """
    images = [[g.image for g in catalog.monotone_maps(Q, P)] for Q in site.objects]
    index = [{img: c for c, img in enumerate(imgs)} for imgs in images]
    actions = {}
    for i, j, h in site.generators:
        pick = _picker(site.homs[i][j][h].image)
        actions[(i, j, h)] = tuple(map(index[i].__getitem__, map(pick, images[j])))
    return Presheaf(site, [len(imgs) for imgs in images], actions)


def triangulate(n: int, d: int) -> Presheaf:
    """Simplicial triangulation of the n-cube: [m] -> Poset([m], [1]^n)."""
    if n > TRIANGULATE_BOUND or d > TRIANGULATE_BOUND:
        raise BoundExceeded(f"triangulation capped at dimension {TRIANGULATE_BOUND}")
    return representable(delta_site(d), interval_power(n))


@lru_cache(maxsize=None)
def simplex(n: int, d: int) -> Presheaf:
    """The standard simplex Delta[n] = y[n] on the chain site truncated at d.

    Built and validated once per (n, d) and shared by every horn, attachment
    square and check that needs it, like delta_site(d): callers must not
    mutate it.  Only the simplices are cached, not representable itself, so
    larger one-off presheaves such as triangulations are freed after use.
    """
    return representable(delta_site(d), chain(n))


# ---------------------------------------------------------------------------
# sub-presheaves and horns


def subpresheaf(X: Presheaf, keep: Sequence[Iterable[int]]) -> tuple[Presheaf, PresheafMap]:
    """Sub-presheaf on the given cells (must be closed under the actions).

    Only the generator tables are restricted: a selection closed under the
    generators is closed under every hom, since each is a word in them, and
    Presheaf completes the other tables of the sub-presheaf.
    """
    kept = [sorted(set(k)) for k in keep]
    pos = [{c: s for s, c in enumerate(ks)} for ks in kept]
    actions = {}
    for i, j, h in X.site.generators:
        sub_tab = tuple(map(pos[i].get, _picker(kept[j])(X.actions[(i, j, h)])))
        if None in sub_tab:
            raise InvariantViolation("cell selection is not closed under the actions")
        actions[(i, j, h)] = sub_tab
    sub = Presheaf(X.site, [len(ks) for ks in kept], actions)
    incl = PresheafMap(sub, X, [tuple(ks) for ks in kept])
    return sub, incl


def _face_union_keep(n: int, I: frozenset[int], site: PosetSite) -> list[list[int]]:
    """Per level, the cells of Delta[n] that miss some vertex in I."""
    return [
        [c for c, h in enumerate(catalog.monotone_maps(Q, chain(n))) if not I <= set(h.image)]
        for Q in site.objects
    ]


def face_union(n: int, I: Iterable[int], d: Optional[int] = None) -> tuple[Presheaf, PresheafMap]:
    """Union of the i-th faces of the representable n-simplex, i in I.

    I may be empty (empty sub-presheaf) or everything (the boundary has I
    proper; horns add that restriction on top).
    """
    if d is None:
        d = n
    site = delta_site(d)
    Iset = frozenset(I)
    if any(not 0 <= i <= n for i in Iset):
        raise BadIndexSet("face indices must lie in 0..n")
    return subpresheaf(simplex(n, d), _face_union_keep(n, Iset, site))


def horn(n: int, I: Iterable[int], d: Optional[int] = None) -> PresheafMap:
    """Inclusion of the generalized horn (union of the faces indexed by I).

    Cells are the chain maps into [n] that factor through the i-th face for
    some i in I, i.e. miss some i in I.  I must be a nonempty proper subset of
    the vertices.
    """
    if n > HORN_DIM_BOUND:
        raise BoundExceeded(f"horns capped at dimension {HORN_DIM_BOUND}")
    Iset = frozenset(I)
    if not Iset or not Iset < set(range(n + 1)):
        raise BadIndexSet("need a nonempty proper subset of {0..n}")
    _, incl = face_union(n, Iset, d)
    return incl


# ---------------------------------------------------------------------------
# union-find, shared by left Kan extension and pushouts


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int):
        # find(a) then find(b), inlined: the same halving, one call instead of three
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        while p[b] != b:
            p[b] = p[p[b]]
            b = p[b]
        if a != b:
            p[b] = a


# ---------------------------------------------------------------------------
# left Kan extension along chains -> complete posets


class KanResult:
    """Pointwise left Kan extension value: components of the comma diagram.

    Components are connected components of the category of elements of the
    presheaf pulled back along the projection (M down i) -> chains, where the
    comma objects are pairs ([k], phi: M -> [k]) up to the working truncation.
    Labels are stored only for cells (k, phi, c) with phi surjective, which
    meet every component (the normal form, see _kan_once).  component()
    answers any phi by its image factorization phi = inj . surj with
    surj: M ->> [j] and inj: [j] >-> [k]: the cell (k, phi, c) lies in the
    component of (j, surj, X(inj) c).
    """

    def __init__(self, count: int, depth: int, X: Presheaf, images: list, phis: list,
                 start: list, labels: list):
        self.count = count
        self.depth = depth
        self._X = X
        self._images = images  # images[k][phi_index] is the image of phi: M -> [k]
        self._phis = phis  # phis[k] inverts images[k]
        self._start = start  # start[k][phi_index] -> first cell id, surjective phi only
        self._labels = labels  # cell id -> component label

    def component(self, k: int, phi_index: int, cell: int) -> int:
        if not 0 <= cell < self._X.cells[k]:
            raise IndexError(f"no cell {cell} at level {k}")
        phi = self._images[k][phi_index]
        image = sorted(set(phi))
        j = len(image) - 1
        if j < k:  # phi = inj . surj, with inj the subchain image and surj the ranks in it
            cell = self._X.action(j, k, self._X.site.hom_index(j, k, tuple(image)))[cell]
            k, phi_index = j, self._phis[j][tuple(map(image.index, phi))]
        return self._labels[self._start[k][phi_index] + cell]

    def phi_index(self, k: int, phi: MonotoneMap) -> int:
        return self._phis[k][phi.image]


def _kan_once(X: Presheaf, M: Poset, D: int) -> KanResult:
    """Components over the comma category, computed on surjective phi only.

    A monotone phi: M -> [k] factors uniquely as a surjection M ->> [j]
    followed by an injection [j] >-> [k] (its image is a subchain).  So every
    cell (k, phi, c) is joined by the coface edges of that injection to a
    cell over a surjection, and two cells over surjections are joined exactly
    when codegeneracy edges join them: both sides reduce to the normal form
    (surjection, nondegenerate cell) of the Eilenberg-Zilber lemma (Gabriel
    & Zisman, Calculus of Fractions and Homotopy Theory, 1967, II.3), which
    gives i_!X(M) = sum over j of Surj(M, [j]) x X_j^nd.  Cells are therefore
    kept only over surjective phi, and unions are taken only along the
    generators whose hom is surjective (the codegeneracies); a surjection
    after a surjection is one, so every union stays inside the kept cells.
    """
    site = X.site
    # levels above the site, up to D, carry no cells, so no phi is built there
    levels = range(len(site.objects))
    images = [[f.image for f in catalog.monotone_maps(M, chain(k))] for k in levels]
    phis = [{phi: pi for pi, phi in enumerate(row)} for row in images]
    # start[k][phi_index] is the first global id of the cells over a surjective phi
    start: list[dict[int, int]] = []
    total = 0
    for k in levels:
        start.append({})
        if X.cells[k]:
            for pi, phi in enumerate(images[k]):
                if len(set(phi)) == k + 1:
                    start[k][pi] = total
                    total += X.cells[k]
    uf = _UnionFind(total)
    union = uf.union
    for k, k2, h in site.generators:
        uimg = site.homs[k][k2][h].image
        if len(set(uimg)) != k2 + 1 or X.cells[k2] == 0:
            continue
        tab = X.actions[(k, k2, h)]
        at, start2 = phis[k2], start[k2]
        for pi, base in start[k].items():
            base2 = start2[at[tuple(map(uimg.__getitem__, images[k][pi]))]]
            for c2, c in enumerate(tab):
                union(base + c, base2 + c2)
    label_of_root: dict[int, int] = {}
    labels = [label_of_root.setdefault(r, len(label_of_root)) for r in map(uf.find, range(total))]
    return KanResult(len(label_of_root), D, X, images, phis, start, labels)


def _require_chain_site(X: Presheaf) -> int:
    d = len(X.site.objects) - 1
    for k, Q in enumerate(X.site.objects):
        if Q != chain(k):
            raise SiteMismatch("left Kan extension requires the chain-site truncation")
    return d


def left_kan(X: Presheaf, M: Poset, trunc: Optional[int] = None) -> KanResult:
    """Value of the extension of X along chains -> complete posets, at M.

    The value is the set of connected components of X pulled back to the
    comma category of pairs ([k], M -> [k]) with k up to the working
    truncation D (default d+1, allowed d..d+2).  Only the cells over
    surjective M ->> [k] are built, joined along codegeneracies (see
    _kan_once); KanResult.component resolves any other cell by the image
    factorization.  X has cells only at levels <= d, so every D in the
    window gives the same components; D is reported as the depth.
    """
    d = _require_chain_site(X)
    if not is_complete(M):
        raise NotComplete("left Kan extension is evaluated at complete posets only")
    D = d + 1 if trunc is None else trunc
    if not d <= D <= d + 2:
        raise BoundExceeded("working truncation must lie in [d, d+2]")
    return _kan_once(X, M, D)


def left_kan_map(
    F: PresheafMap,
    M: Poset,
    trunc: Optional[int] = None,
    target: Optional[KanResult] = None,
) -> tuple[tuple[int, ...], KanResult, KanResult]:
    """Induced function between pointwise Kan values, as a component mapping.

    Pass a precomputed `target` KanResult (for F.target at the same M and
    truncation) to share it across several maps into the same presheaf.
    """
    src = left_kan(F.source, M, trunc)
    tgt = target if target is not None else left_kan(F.target, M, trunc)
    # F keeps phi, so the surjective cells of the source land on those of the target
    pairs = set()
    for k, row in enumerate(src._start):
        for pi, base in row.items():
            tgt_ids = map(tgt._start[k][pi].__add__, F.components[k])
            pairs.update(zip(src._labels[base:base + F.source.cells[k]],
                             map(tgt._labels.__getitem__, tgt_ids)))
    mapping = dict(pairs)
    if len(mapping) != len(pairs):
        raise InvariantViolation("induced component map is not well defined")
    return tuple(map(mapping.__getitem__, range(src.count))), src, tgt


# ---------------------------------------------------------------------------
# pushouts and the horn attachment square


def pushout(f: PresheafMap, g: PresheafMap) -> tuple[Presheaf, PresheafMap, PresheafMap]:
    """Levelwise pushout of sets along the shared source, with cocone maps.

    Cells are glued levelwise by union-find; the generator tables of the
    quotient are read off those of B and C, and Presheaf completes the rest.
    """
    if f.source != g.source:
        raise SiteMismatch("pushout legs must share their source presheaf")
    A, B, C = f.source, f.target, g.target
    site = A.site
    n = len(site.objects)
    lab_b, lab_c, counts = [], [], []
    for i in range(n):
        nb, nc = B.cells[i], C.cells[i]
        uf = _UnionFind(nb + nc)
        for x, y in zip(f.components[i], g.components[i]):
            uf.union(x, nb + y)
        # labels in order of first root: the B cells first, then the C cells
        roots: dict[int, int] = {}
        labels = [roots.setdefault(r, len(roots)) for r in map(uf.find, range(nb + nc))]
        lab_b.append(labels[:nb])
        lab_c.append(labels[nb:])
        counts.append(len(roots))
    # glue the generator tables only: a quotient that is well defined on
    # the generators is well defined on their composites, and Presheaf
    # completes the rest
    actions = {}
    for i, j, h in site.generators:
        tab: list[Optional[int]] = [None] * counts[j]
        for part, T, lab in (("B", B, lab_b), ("C", C, lab_c)):
            for x, val in zip(lab[j], map(lab[i].__getitem__, T.actions[(i, j, h)])):
                if tab[x] is None:
                    tab[x] = val
                elif tab[x] != val:
                    raise InvariantViolation(f"pushout action not well defined on {part} cells")
        if None in tab:
            raise InvariantViolation("pushout cell without representative")
        actions[(i, j, h)] = tuple(tab)
    P = Presheaf(site, counts, actions)
    in_b = PresheafMap(B, P, lab_b)
    in_c = PresheafMap(C, P, lab_c)
    if any(
        _picker(f.components[i])(in_b.components[i])
        != _picker(g.components[i])(in_c.components[i])
        for i in range(n)
    ):
        raise InvariantViolation("pushout square does not commute")
    return P, in_b, in_c


def horn_attachment_square(n: int, I: Iterable[int], i: int, d: Optional[int] = None) -> dict:
    """Check the face-attachment pushout: glueing the i-th face onto the horn
    with faces I-{i} along their overlap yields the horn with faces I.

    Returns per-level cell counts; raises InvariantViolation unless the
    canonical comparison map from the pushout to the directly built horn is
    an isomorphism of presheaves: a levelwise bijection that is natural.
    """
    Iset = frozenset(I)
    if not Iset or not Iset < set(range(n + 1)) or i not in Iset:
        raise BadIndexSet("need i in I, a nonempty proper subset of {0..n}")
    if d is None:
        d = n
    site = delta_site(d)
    delta_i = MonotoneMap(
        chain(n - 1), chain(n), tuple(j if j < i else j + 1 for j in range(n))
    )
    Iprime = Iset - {i}
    J = frozenset(j for j in range(n) if delta_i.image[j] in Iprime)

    rep_n1 = simplex(n - 1, d)
    big, big_incl = face_union(n, Iset, d)
    prime, prime_incl = face_union(n, Iprime, d)
    small, small_incl = face_union(n - 1, J, d)
    # the kept cells of each, as cells of the ambient simplex
    keep_big, keep_prime, keep_small = (c.components for c in (big_incl, prime_incl, small_incl))

    # positions of kept cells inside the ambient representables
    pos_big = [{c: s for s, c in enumerate(ks)} for ks in keep_big]
    pos_prime = [{c: s for s, c in enumerate(ks)} for ks in keep_prime]
    cells_n = [catalog.monotone_maps(Q, chain(n)) for Q in site.objects]
    idx_n = [{h.image: c for c, h in enumerate(cs)} for cs in cells_n]
    cells_n1 = [catalog.monotone_maps(Q, chain(n - 1)) for Q in site.objects]

    def post_delta(level: int, cell_n1: int) -> int:
        h = cells_n1[level][cell_n1]
        return idx_n[level][tuple(delta_i.image[v] for v in h.image)]

    a = PresheafMap(
        small,
        prime,
        [
            tuple(pos_prime[lvl][post_delta(lvl, c)] for c in keep_small[lvl])
            for lvl in range(len(site.objects))
        ],
    )
    b = small_incl
    P, in_prime, in_face = pushout(a, b)

    # canonical comparison map into the directly built horn
    compare: list[list[Optional[int]]] = [[None] * P.cells[lvl] for lvl in range(len(site.objects))]
    for lvl in range(len(site.objects)):
        for s, c in enumerate(keep_prime[lvl]):
            compare[lvl][in_prime.components[lvl][s]] = pos_big[lvl][c]
        for c1 in range(rep_n1.cells[lvl]):
            target = pos_big[lvl][post_delta(lvl, c1)]
            lab = in_face.components[lvl][c1]
            if compare[lvl][lab] is None:
                compare[lvl][lab] = target
            elif compare[lvl][lab] != target:
                raise InvariantViolation("comparison map to the horn is not well defined")
    counts = {}
    for lvl in range(len(site.objects)):
        if None in compare[lvl] or len(set(compare[lvl])) != len(compare[lvl]):
            raise InvariantViolation(f"pushout differs from the horn at level {lvl}")
        if P.cells[lvl] != big.cells[lvl]:
            raise InvariantViolation(f"pushout differs from the horn at level {lvl}")
        counts[lvl] = P.cells[lvl]
    # a levelwise bijection is an isomorphism once it is also natural
    PresheafMap(P, big, compare)
    return counts


# ---------------------------------------------------------------------------
# hom transport along retract certificates


def nat_hom_via_retract(L: Poset, L2: Poset, trunc_dim: int) -> tuple[MonotoneMap, ...]:
    """Monotone maps L -> L2 obtained as r2 . g . s1 over monotone g between cubes.

    The composite depends only on the restriction of g to the section image,
    and every monotone function there extends to the whole cube (join
    extension into a complete target), so restrictions are enumerated and one
    extension g is materialized for each.  The result is asserted equal to the
    directly enumerated hom-set.
    """
    if L.size > trunc_dim or L2.size > trunc_dim:
        raise BoundExceeded("certificate cube dimension exceeds the truncation")
    cert1 = retract_certificate(L)
    cert2 = retract_certificate(L2)
    cube1, cube2 = cert1.outer, cert2.outer
    s_elems = sorted(cert1.section.image)
    S, _incl = induced_subposet(cube1, s_elems)
    # join extension: g(x) is the join of rho over the section elements below
    # x, whose positions depend on x alone
    below = [
        [p for p, s_el in enumerate(s_elems) if s_el & ~x == 0] for x in range(cube1.size)
    ]
    composites = set()
    for rho in catalog.enumerate_monotone_maps(S, cube2):
        g_image = []
        for positions in below:
            acc = 0
            for p in positions:
                acc |= rho.image[p]
            g_image.append(acc)
        g = MonotoneMap(cube1, cube2, tuple(g_image))
        composites.add(
            tuple(
                cert2.retraction.image[g.image[cert1.section.image[c]]]
                for c in range(L.size)
            )
        )
    direct = {f.image for f in catalog.enumerate_monotone_maps(L, L2)}
    if composites != direct:
        raise InvariantViolation("transported hom-set differs from direct enumeration")
    return tuple(MonotoneMap(L, L2, img) for img in sorted(composites))


def contracting_homotopy(n: int) -> MonotoneMap:
    """Homotopy [1] x [n] -> [n] sending (0, k) to 0 and (1, k) to k."""
    dom = poset_product(chain(1), chain(n))
    image = []
    for k in range(n + 1):
        for x in (0, 1):
            image.append(0 if x == 0 else k)
    return MonotoneMap(dom, chain(n), tuple(image))


# ---------------------------------------------------------------------------
# serialization


def site_to_json(site: PosetSite) -> dict:
    if site.kind in ("delta", "box"):
        return {"kind": site.kind, "dim": len(site.objects) - 1}
    return {"kind": "custom", "objects": [poset_to_json(P) for P in site.objects]}


def site_from_json(data: dict) -> PosetSite:
    """Inverse of site_to_json; raises SchemaError on a malformed site.

    A delta or box site needs a non-negative integer "dim"; a custom site
    needs a list of poset "objects", each at most JSON_POSET_BOUND elements.
    Before a custom site is built, each ordered pair of objects is counted
    (an empty hom-set counts as one); BoundExceeded is raised at the first
    pair that takes the total past SITE_HOM_BOUND.
    """
    if not isinstance(data, dict):
        raise SchemaError(f"site must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind in ("delta", "box"):
        dim = data.get("dim")
        if not _is_int(dim) or dim < 0:
            raise SchemaError(f"site dim must be a non-negative integer, got {dim!r}")
        return delta_site(dim) if kind == "delta" else box_site(dim)
    if kind != "custom":
        raise SchemaError(f"site kind must be delta, box or custom, got {kind!r}")
    objects = data.get("objects")
    if not isinstance(objects, list):
        raise SchemaError("custom site objects must be a list of posets")
    posets = [poset_from_json(p, JSON_POSET_BOUND) for p in objects]
    total = 0
    for P in posets:
        for Q in posets:
            total += max(1, catalog.count_monotone_maps(P, Q))
            if total > SITE_HOM_BOUND:
                raise BoundExceeded(f"custom site has more than {SITE_HOM_BOUND} homs")
    return PosetSite(posets, kind="custom")


def presheaf_to_json(X: Presheaf) -> dict:
    actions = {"%d,%d,%d" % key: list(X.actions[key]) for key in X.site.hom_keys}
    return {"site": site_to_json(X.site), "cells": list(X.cells), "actions": actions}


def presheaf_from_json(data: dict) -> Presheaf:
    """Inverse of presheaf_to_json; raises SchemaError on a malformed document.

    "cells" must be a list of non-negative integers and "actions" an object
    whose keys are "i,j,h" and whose values are lists of integers, exactly
    one table per hom of the site: a missing table is rejected here, not
    completed.  Presheaf then checks shapes, ranges and the functor laws.
    """
    if not isinstance(data, dict):
        raise SchemaError(f"presheaf must be a JSON object, got {type(data).__name__}")
    cells, raw = data.get("cells"), data.get("actions")
    if not isinstance(cells, list) or not all(_is_int(c) and c >= 0 for c in cells):
        raise SchemaError("presheaf cells must be a list of non-negative integers")
    if not isinstance(raw, dict):
        raise SchemaError("presheaf actions must be an object of action tables")
    actions = {}
    for key, tab in raw.items():
        parts = key.split(",")
        try:
            hom = tuple(map(int, parts)) if all(v.isdecimal() for v in parts) else ()
        except ValueError:  # a part longer than int() accepts
            hom = ()
        # one spelling per hom, so that "01,0,0" cannot stand in for "1,0,0"
        if len(hom) != 3 or "%d,%d,%d" % hom != key:
            raise SchemaError(f"action key {key!r} is not of the form \"i,j,h\"")
        if not isinstance(tab, list) or not all(_is_int(v) for v in tab):
            raise SchemaError(f"action table {key!r} must be a list of integers")
        actions[hom] = tuple(tab)
    site = site_from_json(data.get("site"))
    missing = [key for key in site.hom_keys if key not in actions]
    if missing:
        raise InvariantViolation("missing action table (%d,%d,%d)" % missing[0])
    return Presheaf(site, cells, actions)
