"""Finite presheaves over truncated poset-sites.

A site is a finite full subcategory of posets (e.g. the chains [0]..[d]) with
every hom-set materialized in enumeration order and a set of generating homs
found by greedy closure (on the chain site, exactly the cofaces and
codegeneracies).  A presheaf is given by a cell count per object
and its generator tables: a functor is fixed by its values on generators
(Mac Lane, Categories for the Working Mathematician, II.8).  Once the
generators are chosen, the site records steps (g, w, g.w) of two kinds (see
PosetSite._close): one derivation per hom, spelling its shortlex-least word
in the generators, and one rule per minimal non-normal word.  The rules form
a complete rewriting system, so they present the site.  Presheaf runs the
steps in order, one gather each: X(w)X(g) becomes the table of g.w if that
hom has none yet and is compared with it otherwise.  So the generator tables
fix the others, every relation between words is checked, a presheaf keeps
its generator tables only, and a key that names no hom of the site is
rejected.  The laws are checked where tables are made: a sub-presheaf or a
pushout, carried along checked maps, inherits them.  Naturality and the
unions behind left Kan extension are taken along generators only.  Tables
are built and checked by gathers that run in C (itemgetter over a cell
index, see _picker), not one cell at a time.
Everything downstream (left Kan extension along the inclusion of chains
into complete posets, horns, pushouts) is finite and checked exhaustively
at construction time.  The standard simplex Delta[n] on the chain site
truncated at d is built and checked once per (n, d) by simplex(n, d) and
shared, like delta_site(d), by every horn and attachment square over it.

The left Kan extension i_!X(M) is computed over its normal form, on the
site's own levels 0..d: X has no cells above d, so no higher level adds a
component and no working truncation is taken.  A monotone
phi: M -> [k] factors uniquely as a surjection M ->> [j] followed by an
injection [j] >-> [k], and by the Eilenberg-Zilber lemma every cell of X is
uniquely a degeneracy of a nondegenerate one, so i_!X(M) is the disjoint
union over j of Surj(M, [j]) x X_j^nd.  Its classes are found among the
cells over surjective phi, joined along codegeneracies only; a cell over any
other phi is in the class of (surj, X(inj) c).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from operator import itemgetter

from . import catalog
from .errors import (
    BadIndexSet,
    BoundExceeded,
    DomainMismatch,
    InvariantViolation,
    NotComplete,
    SchemaError,
    SiteMismatch,
)
from .karoubi import retract_certificate
from .poset import (
    MonotoneMap,
    Poset,
    _is_int,
    chain,
    checked_maps,
    induced_subposet,
    interval_power,
    is_complete,
)
from .poset import product as poset_product

DELTA_SITE_BOUND = 5
TRIANGULATE_BOUND = 4
HORN_DIM_BOUND = 4
NAT_HOM_BOUND = 4


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
    """Full subcategory of posets on a finite object list, homs materialized.

    Sites are equal when their object lists are.  Only a chain site [0]..[d]
    (see _is_delta), however it was built, has a JSON form and a left Kan
    extension.
    """

    def __init__(self, objects: Sequence[Poset]):
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
        """Pick the generators, then record as steps a complete rewriting
        system for the site in them.

        Candidates are visited by larger object, then non-endomorphisms first,
        then nearer objects first, then larger image first; a candidate becomes
        a generator only when the composites of the earlier generators miss
        it.  On the chain site this keeps exactly the cofaces and
        codegeneracies.

        A word x = g1 g2 ... gl names the hom gl...g2.g1 (g1 acts first);
        words are ordered shortlex, by length and then lexicographically with
        the letters ordered by generator number.  A second pass walks the
        normal words (the least word of each hom) breadth first in that order
        and extends each by every generator g out of its codomain, in order.
        The first word to reach a hom is its normal form (a prefix of a
        normal word is normal, so no other word needs extending), and that
        extension is a derivation.  An extension x.g that reaches a hom already reached
        is a minimal non-normal word exactly when its suffix tail(x).g is
        normal, tail(x) being x without its first letter (every other proper
        factor lies in x or in tail(x).g); then it is a rule x.g -> the
        normal form of its value.  The rules strictly decrease words in
        shortlex, a well-order compatible with concatenation, so rewriting
        terminates, and the irreducible words are exactly the normal words,
        one per hom: the rules form a complete rewriting system, and the
        equalities between words that they generate are all that hold in the
        site (Book & Otto, String-Rewriting Systems, 1993).

        Sets generators, as (i, j, h), and steps, a flat tuple p0, w0, c0,
        p1, w1, c1, ... with one triple per derivation and then one per
        rule: hom_keys[c] is g.w for the p-th generator g and w = hom_keys[w],
        the value of a normal word.  A derivation's w is a generator or the
        c of an earlier derivation.  Flat, because a tuple per step would
        cost 64 bytes more each.  Every hom other than the identities and
        generators is the c of exactly one derivation.
        """
        n = len(self.objects)
        homs, index, keys = self.homs, self._index, self.hom_keys
        # hom_keys lists homs[i][j] at positions offset[i][j] onwards
        offset = [[0] * n for _ in range(n)]
        total = 0
        for i in range(n):
            for j in range(n):
                offset[i][j] = total
                total += len(homs[i][j])
        identities = [offset[i][i] + h for i, h in enumerate(self.identity_index)]
        reached = bytearray(len(keys))
        for x in identities:
            reached[x] = 1
        into: list[list[int]] = [[] for _ in range(n)]  # reached non-identity homs by codomain
        leaving: list[list[int]] = [[] for _ in range(n)]  # generator numbers p by domain
        generators: list[tuple[int, int, int]] = []
        fresh: list[int] = []  # homs reached but not yet met by the generators

        def compose(p: int, w: int) -> int:
            _, k, b = generators[p]
            i, j, a = keys[w]
            image = homs[j][k][b].image
            return offset[i][k] + index[i][k][tuple(map(image.__getitem__, homs[i][j][a].image))]

        def reach(p: int, w: int):
            c = compose(p, w)
            if not reached[c]:
                reached[c] = 1
                fresh.append(c)

        def order(key):
            i, j, h = key
            return (max(i, j), i == j, abs(i - j), -len(set(homs[i][j][h].image)), key)

        for key in sorted(keys, key=order):
            j = key[0]
            g = offset[j][key[1]] + key[2]
            if reached[g]:
                continue
            reached[g] = 1
            leaving[j].append(len(generators))
            generators.append(key)
            fresh.append(g)
            for w in into[j]:
                reach(len(generators) - 1, w)
            while fresh:
                w = fresh.pop()
                cod = keys[w][1]
                into[cod].append(w)
                for p in leaving[cod]:
                    reach(p, w)
        self.generators = tuple(generators)

        # the second pass: the normal words of length 1 are the generators, in
        # order, and their tails are empty
        letters = [offset[j][k] + b for j, k, b in generators]
        words = letters
        reached = bytearray(len(keys))
        for x in letters + identities:
            reached[x] = 1
        tail: dict[int, int] = {}  # hom -> value of tail(its normal word), if nonempty
        derived: dict[tuple[int, int], int] = {}  # (w, p) -> c for each derivation
        derivations: list[int] = []
        rules: list[int] = []
        while words:
            longer = []
            for x in words:
                t = tail.get(x)
                for p in leaving[keys[x][1]]:
                    c = compose(p, x)
                    if not reached[c]:
                        reached[c] = 1
                        # tail(x).g is normal and one letter shorter: derived already
                        tail[c] = letters[p] if t is None else derived[(t, p)]
                        derived[(x, p)] = c
                        derivations.extend((p, x, c))
                        longer.append(c)
                    elif t is None or (t, p) in derived:
                        rules.extend((p, x, c))
            words = longer
        self.steps = tuple(derivations + rules)

    def hom_index(self, i: int, j: int, image: tuple[int, ...]) -> int:
        return self._index[i][j][image]

    def __eq__(self, other):
        return isinstance(other, PosetSite) and self.objects == other.objects

    def __hash__(self):
        return hash(self.objects)

    def __repr__(self):
        return f"PosetSite(sizes={[P.size for P in self.objects]})"


@lru_cache(maxsize=None)
def delta_site(d: int) -> PosetSite:
    """Truncated chain site with objects [0], [1], ..., [d]."""
    if d < 0:
        raise ValueError("dimension must be >= 0")
    if d > DELTA_SITE_BOUND:
        raise BoundExceeded(f"chain site capped at dimension {DELTA_SITE_BOUND}")
    return PosetSite([chain(k) for k in range(d + 1)])


def _is_delta(site: PosetSite) -> bool:
    """Whether the site is a chain site: nonempty, with object k the chain [k]."""
    return bool(site.objects) and all(Q == chain(k) for k, Q in enumerate(site.objects))


class Presheaf:
    """Set-valued contravariant functor on a site; cells are 0..count-1 labels.

    actions[(i, j, h)] is the table of X(homs[i][j][h]), generators only once validated.
    """

    def __init__(self, site: PosetSite, cells: Sequence[int], actions: dict, validate: bool = True):
        self.site = site
        self.cells = tuple(cells)
        self.actions = dict(actions)
        if validate:
            self.validate()

    def validate(self) -> list[tuple[int, ...]]:
        """Check the tables given, complete the others along the site's steps
        and check the laws; raise InvariantViolation on the first failure.
        Return every table in hom_keys order; keep the generators' in actions.

        Each cell count must be a non-negative int, each key must name a
        hom, and each table given must have the right shape and range (by
        min/max) and be the identity at an identity.  Every generator table
        must be given.  Then each step (p, w, c) of the site costs one
        C-level gather, X(w)X(g) for the p-th generator g: it becomes the
        table of c = g.w if that hom has none yet, and is compared with it
        otherwise.  The derivations come first, so each hom's table is X of
        its normal word, built or compared; a rule then compares X of a
        minimal non-normal word with the table of its value.  That is
        enough: the rules form a complete rewriting system (see
        PosetSite._close), so any two words with one value rewrite to the
        same normal word, and tables that respect every rule respect every
        equality of words.  Hence X(g.w) = X(w)X(g) for every
        generator g and hom w, and so for every composable pair.
        """
        site = self.site
        if len(self.cells) != len(site.objects):
            raise InvariantViolation("one cell count per site object required")
        if not all(_is_int(c) and c >= 0 for c in self.cells):
            raise InvariantViolation("cell counts must be non-negative integers")
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
        self.actions = {key: actions[key] for key in site.generators}
        return tables

    def __eq__(self, other):
        return (  # the generator tables fix the functor
            isinstance(other, Presheaf)
            and self.site == other.site
            and self.cells == other.cells
            and self.actions == other.actions
        )


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


# ---------------------------------------------------------------------------
# representables


def representable(site: PosetSite, P: Poset) -> Presheaf:
    """Cells at Q are the monotone maps Q -> P; action is precomposition.

    P need not be an object of the site (restricted representable).  The
    table of each generator f sends each cell g to the index of g.f: the
    image of g.f is gathered from g's image by an itemgetter on f's image,
    and looked up in the cell index, both in C.  Presheaf checks the laws.
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
    generators is closed under every hom, since each is a word in them.  The
    inclusion is injective and natural, so every law holds as it does in X.
    """
    kept = [sorted(set(k)) for k in keep]
    pos = [{c: s for s, c in enumerate(ks)} for ks in kept]
    actions = {}
    for i, j, h in X.site.generators:
        sub_tab = tuple(map(pos[i].get, _picker(kept[j])(X.actions[(i, j, h)])))
        if None in sub_tab:
            raise InvariantViolation("cell selection is not closed under the actions")
        actions[(i, j, h)] = sub_tab
    sub = Presheaf(X.site, [len(ks) for ks in kept], actions, validate=False)
    incl = PresheafMap(sub, X, [tuple(ks) for ks in kept])
    return sub, incl


def face_union(n: int, I: Iterable[int], d: int | None = None) -> tuple[Presheaf, PresheafMap]:
    """Union of the i-th faces of the representable n-simplex, i in I.

    I must lie in 0..n, unchecked here: both callers, horn and
    horn_attachment_square, require a nonempty proper subset of 0..n first,
    and pass it, a subset of it (I - {i} may be empty) or its preimage along
    a coface.  Its cells at each level are the chain maps into [n] that miss
    some vertex in I.  n is capped at HORN_DIM_BOUND here, where horns and
    attachment squares both build theirs.
    """
    if n > HORN_DIM_BOUND:
        raise BoundExceeded(f"horns and face unions capped at dimension {HORN_DIM_BOUND}")
    if d is None:
        d = n
    site = delta_site(d)
    Iset = frozenset(I)
    keep = [
        [c for c, h in enumerate(catalog.monotone_maps(Q, chain(n))) if not Iset <= set(h.image)]
        for Q in site.objects
    ]
    return subpresheaf(simplex(n, d), keep)


def horn(n: int, I: Iterable[int], d: int | None = None) -> PresheafMap:
    """Inclusion of the generalized horn (union of the faces indexed by I).

    Cells are the chain maps into [n] that factor through the i-th face for
    some i in I, i.e. miss some i in I.  I must be a nonempty proper subset of
    the vertices.
    """
    Iset = frozenset(I)
    if not Iset or not Iset < set(range(n + 1)):
        raise BadIndexSet("need a nonempty proper subset of {0..n}")
    _, incl = face_union(n, Iset, d)
    return incl


# ---------------------------------------------------------------------------
# quotients, shared by left Kan extension, pushouts and the attachment square


def _classes(size: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, list[int]]:
    """Classes of the equivalence on range(size) generated by pairs.

    Union-find with path halving, inlined in one loop; each class's root is
    its least element, so every parent is at most its child and one forward
    pass labels the elements.  Returns the number of classes and a label per
    element; labels number the classes in order of their first element.
    """
    parent = list(range(size))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    labels: list[int] = []
    count = 0
    for x, p in enumerate(parent):
        if p == x:
            labels.append(count)
            count += 1
        else:
            labels.append(labels[p])
    return count, labels


def _descend(size: int, pairs: Iterable[tuple[int, int]], what: str) -> tuple[int, ...]:
    """The function on classes 0..size-1 whose graph is the (class, value) pairs.

    Raises InvariantViolation, its message starting with `what`, when a class
    gets two values or none.
    """
    table: list[int | None] = [None] * size
    for x, v in pairs:
        if table[x] is None:
            table[x] = v
        elif table[x] != v:
            raise InvariantViolation(f"{what}: class {x} gets two values")
    if None in table:
        raise InvariantViolation(f"{what}: class {table.index(None)} gets no value")
    return tuple(table)


# ---------------------------------------------------------------------------
# left Kan extension along chains -> complete posets


class KanResult(namedtuple("KanResult", "count M X start labels")):
    """Pointwise left Kan extension value at M: components of the comma diagram.

    Components are connected components of the category of elements of the
    presheaf pulled back along the projection (M down i) -> chains, where the
    comma objects are pairs ([k], phi: M -> [k]) with k up to the site's
    truncation d (see left_kan).  Cells (k, phi, c) are kept only for phi
    surjective, which meet every component (the normal form, see left_kan):
    start[k] maps the image of each surjective phi: M ->> [k] to the id of
    its first cell, and labels maps a cell id to its component.
    component() answers any phi by its image factorization phi = inj . surj
    with surj: M ->> [j] and inj: [j] >-> [k]: the cell (k, phi, c) lies in
    the component of (j, surj, X(inj) c), X(inj) being the tables of the
    cofaces (generators) at the points inj misses, from level k down to j.
    """

    __slots__ = ()

    def component(self, k: int, phi: MonotoneMap, cell: int) -> int:
        X = self.X
        if not 0 <= k < len(self.start) or not 0 <= cell < X.cells[k]:
            raise IndexError(f"no cell {cell} at level {k}")
        if phi.dom != self.M or phi.cod != chain(k):
            raise DomainMismatch(f"phi is not a map from M to [{k}]")
        image = sorted(set(phi.image))
        missing = sorted(set(range(k + 1)).difference(image))
        for level, m in zip(range(k, 0, -1), reversed(missing)):
            coface = tuple(x for x in range(level + 1) if x != m)
            cell = X.actions[(level - 1, level, X.site.hom_index(level - 1, level, coface))][cell]
        surj = tuple(map(image.index, phi.image))  # phi = inj . surj
        return self.labels[self.start[len(image) - 1][surj] + cell]


def left_kan(X: Presheaf, M: Poset) -> KanResult:
    """Value of the extension of X along chains -> complete posets, at M.

    The value is the set of connected components of X pulled back to the
    comma category of pairs ([k], phi: M -> [k]) with k up to the site's
    truncation d; no working truncation above d is taken, because X has no
    cells above level d and those levels add no component.

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
    At a level where X has no cells no phi is built.  KanResult.component
    resolves any other cell by the image factorization.
    """
    site = X.site
    if not _is_delta(site):
        raise SiteMismatch("left Kan extension requires the chain-site truncation")
    if not is_complete(M):
        raise NotComplete("left Kan extension is evaluated at complete posets only")
    # start[k][phi.image] is the first global id of the cells over a surjective phi
    start: list[dict[tuple[int, ...], int]] = []
    total = 0
    for k in range(len(site.objects)):
        start.append({})
        if not X.cells[k]:
            continue
        for phi in catalog.monotone_maps(M, chain(k)):
            if len(set(phi.image)) == k + 1:
                start[k][phi.image] = total
                total += X.cells[k]
    # the cell c2 over phi2 = s.phi is joined to the cell X(s) c2 over phi
    edges = []
    for k, k2, h in site.generators:
        uimg = site.homs[k][k2][h].image
        if len(set(uimg)) != k2 + 1 or X.cells[k2] == 0:
            continue
        tab = X.actions[(k, k2, h)]
        start2 = start[k2]
        for phi, base in start[k].items():
            base2 = start2[tuple(map(uimg.__getitem__, phi))]
            edges.append(zip(map(base.__add__, tab), range(base2, base2 + len(tab))))
    count, labels = _classes(total, itertools.chain.from_iterable(edges))
    return KanResult(count, M, X, start, labels)


def left_kan_map(
    F: PresheafMap, M: Poset, target: KanResult | None = None
) -> tuple[tuple[int, ...], KanResult, KanResult]:
    """Induced function between pointwise Kan values, as a component mapping.

    Pass a precomputed `target`, the value of F.target at the same M, to
    share it across several maps into the same presheaf; DomainMismatch is
    raised unless it is that value.
    """
    if target is not None and (target.M != M or target.X != F.target):
        raise DomainMismatch("target is not the Kan value of the map's target at M")
    src = left_kan(F.source, M)
    tgt = target if target is not None else left_kan(F.target, M)
    # F keeps phi, so the surjective cells of the source land on those of the target
    pairs = itertools.chain.from_iterable(
        zip(src.labels[base:base + F.source.cells[k]],
            map(tgt.labels.__getitem__, map(tgt.start[k][phi].__add__, F.components[k])))
        for k, row in enumerate(src.start)
        for phi, base in row.items()
    )
    mapping = _descend(src.count, pairs, "induced component map is not well defined")
    return mapping, src, tgt


# ---------------------------------------------------------------------------
# pushouts and the horn attachment square


def pushout(f: PresheafMap, g: PresheafMap) -> tuple[Presheaf, PresheafMap, PresheafMap]:
    """Levelwise pushout of sets along the shared source, with cocone maps.

    At each level the cells of B, then of C, are divided into the classes
    joined by f(x) ~ g(x) (see _classes); the generator tables of the
    quotient descend from those of B and C.  The legs are built unchecked:
    their components are class labels, so in range, and each quotient table
    is _descend of exactly the pairs that the legs' naturality squares at its
    generator equate, so once it returns every square holds.  Natural and
    jointly surjective legs carry every law of B and C to the quotient.
    """
    if f.source != g.source:
        raise SiteMismatch("pushout legs must share their source presheaf")
    B, C = f.target, g.target
    site = f.source.site
    lab_b, lab_c, counts = [], [], []
    for i in range(len(site.objects)):
        nb = B.cells[i]
        count, labels = _classes(
            nb + C.cells[i], zip(f.components[i], map(nb.__add__, g.components[i]))
        )
        lab_b.append(labels[:nb])
        lab_c.append(labels[nb:])
        counts.append(count)
    # a quotient well defined on the generators is so on their composites
    actions = {}
    for key in site.generators:
        i, j, _ = key
        pairs = itertools.chain(
            zip(lab_b[j], map(lab_b[i].__getitem__, B.actions[key])),
            zip(lab_c[j], map(lab_c[i].__getitem__, C.actions[key])),
        )
        actions[key] = _descend(counts[j], pairs, "pushout action not well defined")
    P = Presheaf(site, counts, actions, validate=False)
    return P, PresheafMap(B, P, lab_b, validate=False), PresheafMap(C, P, lab_c, validate=False)


def horn_attachment_square(n: int, I: Iterable[int], i: int, d: int | None = None) -> dict:
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
    levels = range(len(site.objects))
    delta_image = MonotoneMap(
        chain(n - 1), chain(n), tuple(j if j < i else j + 1 for j in range(n))
    ).image
    Iprime = Iset - {i}
    J = frozenset(j for j in range(n) if delta_image[j] in Iprime)

    big, big_incl = face_union(n, Iset, d)
    prime, prime_incl = face_union(n, Iprime, d)
    small, small_incl = face_union(n - 1, J, d)
    # the kept cells of each, as cells of the ambient simplex
    keep_big, keep_prime, keep_small = (c.components for c in (big_incl, prime_incl, small_incl))

    # positions of kept cells inside the ambient representables
    pos_big = [{c: s for s, c in enumerate(ks)} for ks in keep_big]
    pos_prime = [{c: s for s, c in enumerate(ks)} for ks in keep_prime]
    # the component of delta_i: Delta[n-1] -> Delta[n] at each level
    delta = []
    for Q in site.objects:
        idx_n = {h.image: c for c, h in enumerate(catalog.monotone_maps(Q, chain(n)))}
        delta.append(tuple(
            idx_n[tuple(map(delta_image.__getitem__, h.image))]
            for h in catalog.monotone_maps(Q, chain(n - 1))
        ))

    a = PresheafMap(
        small,
        prime,
        [tuple(map(pos_prime[lvl].__getitem__, _picker(keep_small[lvl])(delta[lvl])))
         for lvl in levels],
    )
    P, in_prime, in_face = pushout(a, small_incl)

    # canonical comparison map into the directly built horn
    compare, counts = [], {}
    for lvl in levels:
        pairs = itertools.chain(
            zip(in_prime.components[lvl], map(pos_big[lvl].__getitem__, keep_prime[lvl])),
            zip(in_face.components[lvl], map(pos_big[lvl].__getitem__, delta[lvl])),
        )
        comp = _descend(P.cells[lvl], pairs, "comparison map to the horn is not well defined")
        if P.cells[lvl] != big.cells[lvl] or len(set(comp)) != P.cells[lvl]:
            raise InvariantViolation(f"pushout differs from the horn at level {lvl}")
        compare.append(comp)
        counts[lvl] = P.cells[lvl]
    # a levelwise bijection is an isomorphism once it is also natural
    PresheafMap(P, big, compare)
    return counts


# ---------------------------------------------------------------------------
# hom transport along retract certificates


def nat_hom_via_retract(L: Poset, L2: Poset) -> tuple[MonotoneMap, ...]:
    """Monotone maps L -> L2 obtained as r2 . g . s1 over monotone g between cubes.

    The composite depends only on the restriction of g to the section image,
    and every monotone function there extends to the whole cube (join
    extension into a complete target), so restrictions are enumerated and one
    extension g is built for each.  The extensions are checked monotone as
    one stream of images by `checked_maps`, with no free element: the first
    in full, each later one where it differs from the one before.
    The result is asserted equal to the directly enumerated hom-set.
    """
    if L.size > NAT_HOM_BOUND or L2.size > NAT_HOM_BOUND:
        raise BoundExceeded(f"certificate cube dimension capped at {NAT_HOM_BOUND}")
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

    def join_extensions():
        for rho in catalog.enumerate_monotone_maps(S, cube2):
            rho_image = rho.image
            g_image = []
            for positions in below:
                acc = 0
                for p in positions:
                    acc |= rho_image[p]
                g_image.append(acc)
            yield g_image

    r2, s1 = cert2.retraction.image, cert1.section.image
    composites = {
        tuple(r2[g.image[s]] for s in s1)
        for g in checked_maps(cube1, cube2, join_extensions())
    }
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
    if not _is_delta(site):
        raise SiteMismatch(f"{site!r} has no JSON form")
    return {"kind": "delta", "dim": len(site.objects) - 1}


def site_from_json(data: dict) -> PosetSite:
    """Inverse of site_to_json; raises SchemaError on a malformed site.

    A site is {"kind": "delta", "dim": d} with d a non-negative integer, read
    as delta_site(d), which bounds d; a chain site built in code is written
    in this form too.
    """
    if not isinstance(data, dict):
        raise SchemaError(f"site must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind != "delta":
        raise SchemaError(f"site kind must be delta, got {kind!r}")
    dim = data.get("dim")
    if not _is_int(dim) or dim < 0:
        raise SchemaError(f"site dim must be a non-negative integer, got {dim!r}")
    return delta_site(dim)


def presheaf_to_json(X: Presheaf) -> dict:
    """One table per hom, as validate derives and checks them."""
    site = site_to_json(X.site)
    actions = {"%d,%d,%d" % key: list(t) for key, t in zip(X.site.hom_keys, X.validate())}
    return {"site": site, "cells": list(X.cells), "actions": actions}


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
