"""Search for induced embeddings of a defining graph into the extension
graph of another, reported as verifiable certificates.

Presence of an embedding is semi-decidable: the search explores finite
patches of increasing size and either returns a certificate or gives up
at its budget, which is evidence of absence only at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import graphs, patches, words
from .graphs import SimplicialGraph
from .patches import ConjugateGenerator, Patch


MAX_PATCHES_PER_LEVEL = 300
LEVEL_CACHE_SIZE = 64
# A certificate is verified where it is built and again by its consumer;
# the cache only needs to bridge that gap.
CERTIFICATE_CACHE_SIZE = 16
# Balls are kept per codomain, radius and budget, as the doubling levels are.
BALL_PATCH_CACHE_SIZE = 16


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 3          # doubling rounds; also the ball-radius ceiling

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError(f"negative search depth {self.max_depth}")


@dataclass(frozen=True)
class EmbeddingCertificate:
    domain: SimplicialGraph
    codomain: SimplicialGraph   # defining graph of the target group
    mapping: tuple              # ((domain vertex, ConjugateGenerator), ...)
    provenance: tuple = ()      # patch provenance that produced the witness

    def as_dict(self):
        return dict(self.mapping)


@lru_cache(maxsize=CERTIFICATE_CACHE_SIZE)
def verify_certificate(cert: EmbeddingCertificate) -> bool:
    """Re-derive everything from the word algebra: the images must be
    canonical, pairwise distinct, and commute exactly along domain edges.
    Cached on the whole certificate's value.

    Each image is checked on its letters, in mapping order: first the
    letters and the base, with the errors of `GroupWord` and
    `patches.conjugate_generator`, then whether u^x is canonical, that is,
    whether x is the canonical word of the coset C(u)·x
    (`words._coset_letters`).  It is exactly when x is in normal form and
    no letter of st(u) shuffles to its front (`words._coset_keeps`).  Each
    distinct conjugator's normal form is checked once; a word of fewer
    than two letters is normal.

    The pairs are walked once.  Distinct images commute only when their
    bases are adjacent (the defining-graph cases of `patches.commute_cg`),
    and then always when their conjugators are equal, so only the other
    adjacent-base pairs reach the word algebra, ordered by base."""
    m = cert.as_dict()
    dom, cod = cert.domain, cert.codomain
    if set(m) != dom.vertex_set:
        return False
    normal = set()
    for cg in m.values():
        conj = cg.conj
        words.check_letters(cod, conj)
        if cg.base not in cod:
            raise patches.PatchError(f"unknown base vertex {cg.base!r}")
        if conj not in normal:
            if len(conj) > 1 and words._normal_letters(cod, conj) != conj:
                return False
            normal.add(conj)
        if not words._coset_keeps(cod, cg.base, conj):
            return False
    cgs = list(m.values())
    if len(set(cgs)) != len(cgs):
        return False
    commute = patches._commute_cg
    vs = dom.vertices
    for i, u in enumerate(vs):
        a, nbrs = m[u], dom.adjacency[u]
        link = cod.adjacency[a.base]
        for v in vs[i + 1:]:
            b = m[v]
            if b.base not in link:
                edge = False
            elif a.conj == b.conj:
                edge = True
            else:
                edge = commute(cod, a, b) if a.base < b.base else commute(cod, b, a)
            if edge != (v in nbrs):
                return False
    return True


def _fresh_exponent(p: Patch, center):
    return 1 + sum(1 for s in p.provenance
                   if s[0] == "double" and s[1] == center)


@lru_cache(maxsize=LEVEL_CACHE_SIZE)
def _doubling_level(cod: SimplicialGraph, level: int, vertex_budget: int):
    """Patches reachable by exactly `level` doublings, deduplicated by
    vertex set across all shallower levels, smallest parents first, at
    most MAX_PATCHES_PER_LEVEL per level.  Cached so searches over one
    codomain share the whole family; `vertex_budget` is the patch budget
    in force, which decides which doublings are dropped, so it is part of
    the key."""
    if level == 0:
        return (patches.base_patch(cod),)
    seen = set()
    for l in range(level):
        for p in _doubling_level(cod, l, vertex_budget):
            seen.add(p.vertex_set)
    out = []
    parents = sorted(_doubling_level(cod, level - 1, vertex_budget),
                     key=lambda p: p.n)
    for p in parents:
        for center in p.cg_vertices:
            try:
                q = patches.double_along_star(p, center, _fresh_exponent(p, center))
            except patches.BudgetExceeded:
                continue
            if q.vertex_set in seen:
                continue
            seen.add(q.vertex_set)
            out.append(q)
            if len(out) >= MAX_PATCHES_PER_LEVEL:
                return tuple(out)
    return tuple(out)


@lru_cache(maxsize=BALL_PATCH_CACHE_SIZE)
def _ball(cod: SimplicialGraph, radius: int, vertex_budget: int):
    """`patches.ball_patch(cod, radius)`, cached so searches over one
    codomain share each ball and its search view; `vertex_budget` is the
    patch budget in force, which decides whether the ball is refused, so it
    is part of the key.  A refusal raises, and is not cached."""
    return patches.ball_patch(cod, radius)


def patch_certificates(dom: SimplicialGraph, p: Patch, limit=None):
    """Certificates of the induced embeddings of `dom` into the patch `p`,
    at most `limit` of them, in `graphs.find_induced_embeddings` order on
    `patches.to_simplicial(p)`.  The search reads the patch's carried
    `search_view`, not a named graph, so two patch vertices with one name
    stay two vertices."""
    return _certificates(dom, graphs._domain_plan(dom), p, limit)


def _certificates(dom, plan, p, limit):
    """`patch_certificates` with the domain's search plan built already.
    A patch whose degree counts cannot hold the domain has none, and is
    not given a `search_view`; the search does not count them again."""
    if not graphs._can_hold(plan, p.degree_counts):
        return []
    cgs, nbrs, fits = p.search_view
    found = graphs._embedding_search(plan, nbrs, limit, [fits[d] for d in plan.degrees])
    return [EmbeddingCertificate(
                dom, p.graph, tuple(sorted(zip(plan.order, [cgs[k] for k in f]))),
                p.provenance)
            for f in found]


def search_embedding(dom: SimplicialGraph, cod: SimplicialGraph,
                     budget: SearchBudget = SearchBudget()):
    """A verified certificate for an induced embedding of `dom` into the
    extension graph of `cod`, or None within the budget.

    Strategy: breadth-first iterative deepening over doubling sequences
    (exponents kept fresh per center, small parents expanded first), up
    to the first empty level, since every deeper level is empty too, then
    whole balls of growing radius as a fallback, up to the first one the
    budget refuses.  Both are kept per codomain.
    """
    if dom.n == 0 or cod.n == 0:
        raise patches.PatchError("empty graph in embedding search")
    vertex_budget = patches.vertex_budget()
    plan = graphs._domain_plan(dom)
    for level in range(budget.max_depth + 1):
        level_patches = _doubling_level(cod, level, vertex_budget)
        if not level_patches:
            break       # each level is built from the one before
        for p in level_patches:
            for cert in _certificates(dom, plan, p, limit=1):
                if verify_certificate(cert):
                    return cert
    for radius in range(1, min(budget.max_depth, 2) + 1):
        try:
            ball = _ball(cod, radius, vertex_budget)
        except patches.BudgetExceeded:
            break
        for cert in _certificates(dom, plan, ball, limit=1):
            if verify_certificate(cert):
                return cert
    return None


def mutual_embeddability(g1: SimplicialGraph, g2: SimplicialGraph,
                         budget: SearchBudget = SearchBudget()):
    """(certificate g1 -> ext(g2) or None, certificate g2 -> ext(g1) or None)."""
    return (search_embedding(g1, g2, budget),
            search_embedding(g2, g1, budget))
