"""Finite induced subgraphs ("patches") of the extension graph.

A patch vertex is a conjugate generator v^g with g the canonical coset
representative for the centralizer of v, so two patch vertices are equal
as group elements exactly when their (base, conjugator) pairs coincide.

Edges are settled from the defining graph where it decides them, derived
by conjugation otherwise, and audited by `recompute_edges`.  By Fact 1 of
Kim–Koberda (*Embedability between right-angled Artin groups*, Geom.
Topol. 2013, §3), v^g -> v is a graph homomorphism from the extension
graph onto the defining graph: two distinct vertices can be adjacent only
when their bases are, so `commute_cg` runs the word algebra only on pairs
with adjacent bases.  A base or ball patch tests every pair; a doubling
fixes the closed star of its center, carries the parent's edges over to
the conjugated copy (conjugation is an automorphism of the extension
graph), and tests only the pairs with one end outside the copy, the other
outside the parent, and adjacent bases.
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
    base: str
    conj: tuple   # canonical coset-representative letters

    def name(self):
        if not self.conj:
            return self.base
        return f"{self.base}^" + words.format_letters(self.conj)

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
    # Called only on distinct, adjacent bases.  u^x commutes with w^y iff
    # conjugating both by x^-1 reduces to [u, w^(y x^-1)] = 1, i.e.
    # membership of the shifted w, the raw word x y^-1 w y x^-1, in the
    # parabolic centralizer of u, which is generated by the closed star:
    # only its support after cancellation matters.
    shifted = (a.conj + words.inverse_letters(b.conj) + ((b.base, 1),)
               + b.conj + words.inverse_letters(a.conj))
    return words.reduced_support(g, shifted) <= graphs.star(g, a.base)


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
    """
    if a.base == b.base:
        return a == b
    if b.base not in graphs.link(g, a.base):
        return False
    key = (a, b) if a <= b else (b, a)
    return _commute_cg(g, *key)


@dataclass(frozen=True)
class Patch:
    graph: SimplicialGraph
    cg_vertices: tuple          # ConjugateGenerator, in insertion order
    cg_edges: frozenset         # frozenset pairs of ConjugateGenerator
    provenance: tuple = ()      # ("double", center, exponent) / ("ball", R) steps

    @property
    def n(self):
        return len(self.cg_vertices)

    @cached_property
    def vertex_set(self) -> frozenset:
        """The vertices as a frozenset, built on first use; not part of
        equality or hashing."""
        return frozenset(self.cg_vertices)

    def has_vertex(self, cg):
        return cg in self.vertex_set

    @cached_property
    def search_view(self) -> tuple:
        """(cgs, nbrs): the vertices in the order of `to_simplicial`'s
        names, ties broken by (base, conj), and each one's neighbours as a
        bit mask over that order, built from `cg_edges` on first use; not
        part of equality or hashing.  The embedding search reads this view,
        so vertices whose names coincide stay distinct."""
        cgs = sorted(self.cg_vertices, key=lambda cg: (cg.name(), cg))
        index = {cg: k for k, cg in enumerate(cgs)}
        nbrs = [0] * len(cgs)
        for e in self.cg_edges:
            a, b = (index[x] for x in e)
            nbrs[a] |= 1 << b
            nbrs[b] |= 1 << a
        return tuple(cgs), nbrs


def _build(g, cgs, provenance, edges=(), pairs=None):
    """Patch on `cgs` (first occurrences, in order) whose edges are `edges`
    plus the commuting ones among `pairs`, by default every vertex pair."""
    seen = tuple(dict.fromkeys(cgs))
    if len(seen) > vertex_budget():
        raise BudgetExceeded(f"patch would have {len(seen)} vertices")
    if pairs is None:
        pairs = itertools.combinations(seen, 2)
    edges = set(edges)
    edges.update(frozenset(pair) for pair in pairs if commute_cg(g, *pair))
    return Patch(g, seen, frozenset(edges), tuple(provenance))


def base_patch(g: SimplicialGraph) -> Patch:
    """The identity copy of the defining graph inside its extension graph."""
    if g.n == 0:
        raise PatchError("empty defining graph")
    cgs = [ConjugateGenerator(v, ()) for v in g.vertices]
    return _build(g, cgs, ())


def double_along_star(p: Patch, center: ConjugateGenerator, exponent: int) -> Patch:
    """Adjoin the conjugate of the whole patch by `exponent`-th power of the
    center's group element; vertices in the closed star of the center are
    fixed.  The exponent must not have been used at this center before."""
    if not p.has_vertex(center):
        raise PatchError("center not in patch")
    if exponent == 0:
        raise PatchError("exponent must be nonzero")
    for step in p.provenance:
        if step[0] == "double" and step[1] == center and step[2] == exponent:
            raise PatchError(f"stale exponent {exponent} at {center}")
    g = p.graph
    z = GroupWord(g, ((center.base, 1 if exponent > 0 else -1),) * abs(exponent))
    zc = words.conjugate(z, center.conj_word(g))    # (base^k)^conjugator
    # The closed star of the center commutes with zc, and vertices are
    # canonical, so it maps to itself without a coset computation.
    fixed = {x for e in p.cg_edges if center in e for x in e} | {center}
    image = {cg: cg if cg in fixed
             else conjugate_generator(g, cg.base, cg.conj_word(g) * zc)
             for cg in p.cg_vertices}
    # Conjugation is an automorphism of the extension graph, so the copy's
    # edges are the parent's carried over.  Only pairs with one end outside
    # the copy, the other outside the parent, and adjacent bases are left
    # to test: other bases never commute (see `commute_cg`).
    in_copy = set(image.values())
    outside = [cg for cg in p.cg_vertices if cg not in in_copy]
    new = [cg for cg in dict.fromkeys(image.values()) if not p.has_vertex(cg)]
    new_by_base = {}
    for cg in new:
        new_by_base.setdefault(cg.base, []).append(cg)
    pairs = [(x, y) for x in outside for base in graphs.link(g, x.base)
             for y in new_by_base.get(base, ())]
    carried = {frozenset(image[x] for x in e) for e in p.cg_edges}
    return _build(
        g, p.cg_vertices + tuple(new),
        p.provenance + (("double", center, exponent),),
        edges=p.cg_edges | carried, pairs=pairs,
    )


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
    names = {cg: name for name, cg in named_vertices(p).items()}
    return graphs.graph(
        names.values(),
        [(names[a], names[b]) for e in p.cg_edges for a, b in [tuple(e)]],
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
    idx = {cg: i for i, cg in enumerate(p.cg_vertices)}
    return {
        "vertices": [
            {"base": cg.base, "conj": words.format_letters(cg.conj)}
            for cg in p.cg_vertices
        ],
        "edges": sorted(sorted((idx[a], idx[b])) for e in p.cg_edges
                        for a, b in [tuple(e)]),
        "provenance": provenance_to_json(p.provenance),
    }
