"""Finite induced subgraphs ("patches") of the extension graph.

A patch vertex is a conjugate generator v^g with g the canonical coset
representative for the centralizer of v, so two patch vertices are equal
as group elements exactly when their (base, conjugator) pairs coincide.

A patch carries its edges as one neighbour bit mask per vertex, over the
vertices in insertion order; `cg_edges`, the search view and the outputs
are derived from the masks.  Edges are settled from the defining graph
where it decides them, derived by conjugation otherwise, and audited by
`recompute_edges`.  By Fact 1 of Kim–Koberda (*Embedability between
right-angled Artin groups*, Geom. Topol. 2013, §3), v^g -> v is a graph
homomorphism from the extension graph onto the defining graph: two
distinct vertices can be adjacent only when their bases are, so
`commute_cg` runs the word algebra only on pairs with adjacent bases,
where it strips one coset of the shorter word y x^-1 instead of reducing
a commutator.  A base or ball patch tests every pair; a doubling fixes the
closed star of its center, read from the center's mask, extends the
parent's masks to the conjugated copy (conjugation is an automorphism of
the extension graph), and tests only the pairs with one end outside the
copy, the other outside the parent, adjacent bases, and one branch at the
center of the Bass–Serre tree of G = <Γ - z> *_<lk z> <st z>, z the
center's base after conjugating by its conjugator (Serre, *Trees*, 1980;
the proof is in `double_along_star`).  Commuting elliptic elements fix a
common point, so pairs in different branches never commute.  In the
exponent-1 families of C5 and Petersen no cross pair is left to test.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import graphs, words
from .graphs import SimplicialGraph
from .words import GroupWord


DEFAULT_VERTEX_BUDGET = 5000

# Cache bounds: a long-lived process keeps at most this many entries.
COMMUTE_CACHE_SIZE = 1 << 17
BALL_CACHE_SIZE = 256


def vertex_budget():
    return int(os.environ.get("PCQI_BUDGET_VERTICES", DEFAULT_VERTEX_BUDGET))


class PatchError(ValueError):
    pass


class BudgetExceeded(PatchError):
    pass


@dataclass(frozen=True, order=True)
class ConjugateGenerator:
    # Slots keep an instance small; the hash is computed once, the name and
    # the conjugator's inverse on first use (None until then), and none of
    # them is part of equality or ordering.
    __slots__ = ("base", "conj", "_hash", "_name", "_inverse")
    base: str
    conj: tuple   # canonical coset-representative letters

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.base, self.conj)))
        object.__setattr__(self, "_name", None)
        object.__setattr__(self, "_inverse", None)

    def __hash__(self):
        return self._hash

    def name(self):
        if self._name is None:
            name = (f"{self.base}^" + words.format_letters(self.conj)
                    if self.conj else self.base)
            object.__setattr__(self, "_name", name)
        return self._name

    def conj_inverse(self) -> tuple:
        """The letters of the conjugator's inverse."""
        if self._inverse is None:
            object.__setattr__(self, "_inverse", words.inverse_letters(self.conj))
        return self._inverse

    def conj_word(self, g: SimplicialGraph) -> GroupWord:
        return GroupWord(g, self.conj)

    def as_word(self, g: SimplicialGraph) -> GroupWord:
        c = GroupWord(g, self.conj)
        return c.inverse() * GroupWord(g, ((self.base, 1),)) * c


def conjugate_generator(g: SimplicialGraph, base: str, conj: GroupWord) -> ConjugateGenerator:
    """Canonicalize v^g into its unique (base, coset representative) pair."""
    if base not in g:
        raise PatchError(f"unknown base vertex {base!r}")
    return ConjugateGenerator(base, words.coset_canonical(base, conj).letters)


@lru_cache(maxsize=COMMUTE_CACHE_SIZE)
def _commute_cg(g: SimplicialGraph, a: ConjugateGenerator, b: ConjugateGenerator) -> bool:
    """Called only on distinct, adjacent bases u = a.base and w = b.base,
    with a = u^x and b = w^y.

    Equal conjugators x = y: u and w commute because they are adjacent,
    and conjugation by x is an automorphism, so u^x and w^x commute.

    Otherwise conjugating both by x^-1 leaves u and w^(y x^-1) = q^-1 w q,
    with q the shortest word of the coset C(w)·(y x^-1).  That word is
    reduced because q is shortest, so its support is supp(q) ∪ {w}, and w
    is in st(u).  So the pair commutes iff supp(q) lies in st(u), which
    generates the centralizer of u."""
    if a.conj == b.conj:
        return True
    st = g.stars[a.base]
    return all(gen in st for gen, _ in words._coset_strip(
        g, b.base, b.conj + a.conj_inverse()))


def commute_cg(g, a, b) -> bool:
    """Extension-graph adjacency-or-equality test for two conjugate generators.

    The defining graph settles two cases before the word algebra runs
    (Fact 1 of Kim–Koberda, Geom. Topol. 2013, §3: v^g -> v is a graph
    homomorphism from the extension graph onto the defining graph):

    - Distinct bases u, w that are not adjacent: no conjugates commute.
      Killing every other generator retracts the group onto <u, w>, a
      free group of rank 2, and sends u^x, w^y to conjugates of u and w.
      Commuting elements of a free group are powers of one element c,
      but then c's image in the abelianisation Z^2 would be a rational
      multiple of both (1, 0) and (0, 1).
    - One base u: u^x commutes with u^y iff u^(y x^-1) lies in the
      centralizer C(u) = <u> x <lk u>.  The only conjugate of u there is
      u: killing every generator but those of lk u sends a conjugate of
      u to 1, so its <lk u> factor is trivial, and its <u> factor is u
      by the exponent sum.  So y x^-1 lies in C(u), the cosets C(u)x and
      C(u)y agree, and the canonical conjugators make a equal to b.

    Adjacent bases u, w, with a = u^x and b = w^y, go to the half-length
    test `_commute_cg`: the pair commutes iff supp(q) lies in st(u), for q
    the shortest word of the coset C(w)·(y x^-1).  It reduces the |x| + |y|
    letters of y x^-1, where the support of the shifted generator
    x y^-1 w y x^-1 takes 2|x| + 2|y| + 1.
    """
    if a.base == b.base:
        return a == b
    if b.base not in graphs.link(g, a.base):
        return False
    # The bases differ, so ordering by base orders the pair as `<=` would.
    return _commute_cg(g, a, b) if a.base < b.base else _commute_cg(g, b, a)


@dataclass(frozen=True)
class Patch:
    graph: SimplicialGraph
    cg_vertices: tuple          # ConjugateGenerator, in insertion order
    nbrs: tuple                 # each vertex's neighbours as bits over cg_vertices
    provenance: tuple = ()      # ("double", center, exponent) / ("ball", R) steps

    @property
    def n(self):
        return len(self.cg_vertices)

    @property
    def cg_edges(self) -> frozenset:
        """The edges as frozenset pairs of conjugate generators, derived
        from `nbrs` on each call."""
        cgs = self.cg_vertices
        return frozenset([frozenset((cgs[i], cgs[j])) for i, j in _index_pairs(self.nbrs)])

    @cached_property
    def vertex_set(self) -> frozenset:
        """The vertices as a frozenset, built on first use; not part of
        equality or hashing."""
        return frozenset(self.cg_vertices)

    @cached_property
    def _index(self) -> dict:
        """Vertex -> its position in `cg_vertices`, built on first use; not
        part of equality or hashing."""
        return {cg: i for i, cg in enumerate(self.cg_vertices)}

    def has_vertex(self, cg):
        return cg in self._index

    @cached_property
    def degree_counts(self) -> list:
        """counts[d]: how many vertices have degree at least d, for d up to
        the largest degree, read from `nbrs` on first use; the same in every
        vertex order, and not part of equality or hashing.  A search tests
        them (`graphs._can_hold`) before it builds the `search_view`."""
        return [m.bit_count() for m in graphs._fits(self.nbrs)]

    @cached_property
    def search_view(self) -> tuple:
        """(cgs, nbrs, fits): the vertices in the order of `to_simplicial`'s
        names, ties broken by (base, conj), each one's neighbours as a bit
        mask over that order, the carried masks permuted on first use, and
        the per-degree candidate masks `graphs._fits(nbrs)`; not part of
        equality or hashing.  The embedding search reads this view, so
        vertices whose names coincide stay distinct."""
        cgs = self.cg_vertices
        order = sorted(range(len(cgs)), key=lambda i: (cgs[i].name(), cgs[i]))
        bit = [0] * len(cgs)
        for k, i in enumerate(order):
            bit[i] = 1 << k
        nbrs = []
        for i in order:
            m, out = self.nbrs[i], 0
            while m:
                low = m & -m
                m ^= low
                out |= bit[low.bit_length() - 1]
            nbrs.append(out)
        return tuple(cgs[i] for i in order), nbrs, graphs._fits(nbrs)


def _index_pairs(nbrs):
    """The edges of the masks `nbrs` as index pairs i < j, in lexicographic
    order."""
    pairs = []
    for i, m in enumerate(nbrs):
        m &= -1 << (i + 1)
        while m:
            low = m & -m
            m ^= low
            pairs.append((i, low.bit_length() - 1))
    return pairs


def _check_budget(n):
    if n > vertex_budget():
        raise BudgetExceeded(f"patch would have {n} vertices")


def _build(g, cgs, provenance):
    """Patch on `cgs`, distinct vertices in order, with an edge for every
    commuting pair."""
    cgs = tuple(cgs)
    _check_budget(len(cgs))
    nbrs = [0] * len(cgs)
    for (i, a), (j, b) in itertools.combinations(enumerate(cgs), 2):
        if commute_cg(g, a, b):
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
    return Patch(g, cgs, tuple(nbrs), tuple(provenance))


def base_patch(g: SimplicialGraph) -> Patch:
    """The identity copy of the defining graph inside its extension graph."""
    if g.n == 0:
        raise PatchError("empty defining graph")
    cgs = [ConjugateGenerator(v, ()) for v in g.vertices]
    return _build(g, cgs, ())


def _branch(g, center: ConjugateGenerator, cg: ConjugateGenerator) -> int:
    """The branch k at the center of the Bass–Serre tree that `cg` lies
    in, for `cg` not commuting with the center (see `double_along_star`):
    ab_z(s) - ab_z(q), for z = center.base, s = g h^-1 the raw letters of
    the center's conjugator g and cg's conjugator h, and q the coset strip
    of C(z)·s.  The base of `cg` does not enter."""
    z = center.base
    s = center.conj + words.inverse_letters(cg.conj)
    q = words._coset_strip(g, z, s)
    return s.count((z, 1)) - s.count((z, -1)) - q.count((z, 1)) + q.count((z, -1))


def double_along_star(p: Patch, center: ConjugateGenerator, exponent: int) -> Patch:
    """Adjoin the conjugate of the whole patch by `exponent`-th power of the
    center's group element; vertices in the closed star of the center are
    fixed.  The exponent must not have been used at this center before.

    A cross pair, one end outside the copy and the other outside the
    parent, is tested only when its bases are adjacent and both ends lie in
    one branch of a Bass–Serre tree at the center.  Write the center as
    z^g and a vertex as x = u^h, and conjugate everything by g^-1, so the
    center becomes z and x becomes s u s^-1 with s = g h^-1.  The group
    splits as A *_C B with A = <Γ - z>, B = C(z) = <st z> and C = <lk z>
    (Serre, *Trees*, 1980).  In its tree the stabilizer of the vertex o = B
    is C(z), and the edges at o are z^k·C, one per k in Z, since
    B/C = <z>; removing o leaves one branch per k.  Every conjugate of a
    generator lies in a conjugate of A or of B, so it fixes a nonempty
    subtree.

    1. Both ends of a cross pair lie outside the closed star of the center
       in the parent or in the copy, whose edges are exact, so neither
       commutes with z and neither fixes o.  So each end fixes a subtree
       that misses o, and that subtree lies in one branch.
    2. Two commuting elliptic elements fix a common point, so a commuting
       pair lies in one branch.
    3. A copy vertex is its preimage conjugated by z^e, e the exponent,
       which moves branch k to branch k - e.
    4. Let q be the shortest word of the coset B·s, so s = b q with b in B
       (`words._coset_strip`).  No letter of st z shuffles to the front of
       q, so the normal form of q in A *_C B starts in A - C, and the
       subtree q·Fix(u), which misses o and contains q·A or q·o, lies past
       the edge C.  So s u s^-1 lies past b·C = z^k·C, where k is the
       exponent sum ab_z(b) = ab_z(s) - ab_z(q), as every letter of lk z
       has none.  Free reduction keeps exponent sums, so s is counted
       unreduced (`_branch`)."""
    index = p._index
    if center not in index:
        raise PatchError("center not in patch")
    if exponent == 0:
        raise PatchError("exponent must be nonzero")
    for step in p.provenance:
        if step[0] == "double" and step[1] == center and step[2] == exponent:
            raise PatchError(f"stale exponent {exponent} at {center}")
    g, cgs, nbrs, n = p.graph, p.cg_vertices, p.nbrs, p.n
    # zc = c^-1 z^exponent c, with z the center's base and c its conjugator.
    zc = (center.conj_inverse()
          + ((center.base, 1 if exponent > 0 else -1),) * abs(exponent)
          + center.conj)
    # The closed star of the center commutes with zc, and vertices are
    # canonical, so it maps to itself without a coset computation.
    # Conjugation is injective, so every other vertex maps to a parent
    # vertex outside the star or to a new vertex of its own.
    fixed = nbrs[index[center]] | 1 << index[center]
    image = list(range(n))
    # A moved vertex's branch depends only on its conjugator (see
    # `_branch`), so each conjugator is stripped once; a new vertex lies in
    # its preimage's branch less the exponent.
    branch = {}
    moved, new, new_by_key = [], [], {}
    coset = words._coset_letters
    for i, cg in enumerate(cgs):
        if not fixed >> i & 1:
            br = branch.get(cg.conj)
            if br is None:
                br = branch[cg.conj] = _branch(g, center, cg)
            im = ConjugateGenerator(cg.base, coset(g, cg.base, cg.conj + zc))
            k = index.get(im)
            if k is None:
                k = n + len(new)
                new.append(im)
                new_by_key.setdefault((im.base, br - exponent), []).append((k, im))
            image[i] = k
            moved.append(i)
    _check_budget(n + len(new))
    # Conjugation is an automorphism of the extension graph, so the copy's
    # edges are the parent's carried over; an edge inside the fixed star is
    # its own image, already in the parent.
    bit = [1 << k for k in image]
    out = list(nbrs) + [0] * len(new)
    copy = fixed
    for i in moved:
        b, m, mapped = bit[i], nbrs[i], 0
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            mapped |= bit[j]
            if low & fixed:
                out[j] |= b
        out[image[i]] |= mapped
        copy |= b
    # Only pairs with one end outside the copy, the other outside the
    # parent, adjacent bases and one branch are left to test: other bases
    # never commute (see `commute_cg`), nor do other branches (see above),
    # and ordering by base orders each pair as `commute_cg` does.
    commute, adjacency = _commute_cg, g.adjacency
    for i, x in enumerate(cgs):
        if copy >> i & 1:
            continue
        br = branch[x.conj]
        for base in adjacency[x.base]:
            for k, y in new_by_key.get((base, br), ()):
                if commute(g, x, y) if x.base < base else commute(g, y, x):
                    out[i] |= 1 << k
                    out[k] |= 1 << i
    return Patch(g, cgs + tuple(new), tuple(out),
                 p.provenance + (("double", center, exponent),))


def doubling_family(g: SimplicialGraph, depth: int) -> list:
    """Every patch reachable from the base patch by at most `depth`
    exponent-1 doublings, breadth first, deduplicated by vertex set.

    BudgetExceeded propagates: a family cut by the vertex budget is not
    returned as if it were complete."""
    if depth < 0:
        raise PatchError(f"negative depth {depth}")
    base = base_patch(g)
    family, frontier = [base], [base]
    seen = {base.vertex_set}
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for center in p.cg_vertices:
                if ("double", center, 1) in p.provenance:
                    continue
                q = double_along_star(p, center, 1)
                if q.vertex_set not in seen:
                    seen.add(q.vertex_set)
                    family.append(q)
                    nxt.append(q)
        frontier = nxt
    return family


@lru_cache(maxsize=BALL_CACHE_SIZE)
def _ball_conjugators(g: SimplicialGraph, base: str, radius: int):
    """Canonical coset representatives for C(base) of length <= radius,
    grouped by length.  Level l+1 reps all arise from level-l reps extended
    by one letter (minimal coset representatives are prefix-closed)."""
    levels = [{()}]
    alphabet = [(v, s) for v in g.vertices for s in (1, -1)]
    for l in range(radius):
        nxt = set()
        for rep in levels[l]:
            for let in alphabet:
                cand = words.coset_canonical(
                    base, GroupWord(g, rep + (let,))).letters
                if len(cand) == l + 1:
                    nxt.add(cand)
        levels.append(nxt)
    return levels


def ball_patch(g: SimplicialGraph, radius: int) -> Patch:
    """All conjugate generators whose canonical conjugator has length at
    most `radius`, with exact edges."""
    if radius < 0:
        raise PatchError("negative radius")
    cgs = []
    for base in g.vertices:
        for level in _ball_conjugators(g, base, radius):
            for rep in sorted(level):
                cgs.append(ConjugateGenerator(base, rep))
    cgs.sort()
    return _build(g, cgs, (("ball", radius),))


def recompute_edges(p: Patch) -> Patch:
    """Self-check: rebuild every edge from the word algebra."""
    return _build(p.graph, p.cg_vertices, p.provenance)


def to_simplicial(p: Patch) -> SimplicialGraph:
    """The patch as a plain graph on conjugate-generator names, for output;
    PatchError when two patch vertices share a name."""
    names = list(named_vertices(p))     # in vertex order
    return SimplicialGraph(
        tuple(sorted(names)),
        frozenset([frozenset((names[i], names[j])) for i, j in _index_pairs(p.nbrs)]),
    )


def named_vertices(p: Patch) -> dict:
    """Name -> conjugate generator, matching `to_simplicial`; PatchError
    when two patch vertices share a name, which a base vertex name holding
    `^` or a space allows."""
    named = {}
    for cg in p.cg_vertices:
        name = cg.name()
        if named.setdefault(name, cg) is not cg:
            raise PatchError(f"two patch vertices are named {name!r}")
    return named


# ---------------------------------------------------------------------------
# serialization

def provenance_to_json(provenance) -> list:
    return [
        {"step": s[0], "center": s[1].name(), "exponent": s[2]}
        if s[0] == "double" else {"step": s[0], "radius": s[1]}
        for s in provenance
    ]


def patch_to_json(p: Patch) -> dict:
    return {
        "vertices": [
            {"base": cg.base, "conj": words.format_letters(cg.conj)}
            for cg in p.cg_vertices
        ],
        "edges": [[i, j] for i, j in _index_pairs(p.nbrs)],
        "provenance": provenance_to_json(p.provenance),
    }
