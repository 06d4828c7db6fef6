"""Atomic-graph rigidity: marked cycles from a minimal maximal subtree,
complexity tuples with the component order, and the desk-scale experiment
checking that every embedding of an atomic graph into its own extension
graph is a conjugation composed with a graph automorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import embeddings, graphs, patches, words
from .graphs import SimplicialGraph
from .words import GroupWord


class RigidityError(ValueError):
    pass


def _require_atomic(g):
    ok, why = graphs.is_atomic(g)
    if not ok:
        raise RigidityError(f"input is not atomic: {why}")


# ---------------------------------------------------------------------------
# marked cycles

def spanning_trees(g: SimplicialGraph):
    """All spanning trees, as frozensets of edges.  Exhaustive; fine for
    the fixture sizes this module targets (|E| <= 18 or so)."""
    edges = sorted(g.edges, key=sorted)
    need = g.n - 1
    out = []
    for combo in itertools.combinations(edges, need):
        t = SimplicialGraph(g.vertices, frozenset(combo))
        if graphs.is_connected(t):
            out.append(frozenset(combo))
    return out


def _tree_path(tree_edges, u, v):
    """The path from u to v in the tree: each step goes to the one neighbour
    one step closer to v."""
    adj = {}
    for a, b in tree_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    dist = graphs._bfs_dist(adj, v)
    path = [u]
    while path[-1] != v:
        path.append(min(adj[path[-1]], key=dist.__getitem__))
    return path


def fundamental_cycle(tree_edges, edge):
    """The cycle closed by adding `edge` to the tree, as a frozenset of
    edges (its core: the tree path plus the edge)."""
    u, v = sorted(edge)
    path = _tree_path(tree_edges, u, v)
    cyc = {frozenset(p) for p in zip(path, path[1:])}
    cyc.add(frozenset(edge))
    return frozenset(cyc)


@dataclass(frozen=True)
class MarkedCycleSet:
    graph: SimplicialGraph
    tree: frozenset             # edges of the chosen maximal subtree
    excluded: tuple             # edges outside the tree, sorted
    cycles: tuple               # frozensets of edges, aligned with excluded
    lengths: tuple              # sorted ascending; minimal over subtrees


def minimal_marked_cycles(g: SimplicialGraph) -> MarkedCycleSet:
    """Exhaustive minimization of the sorted cycle-length tuple over all
    maximal subtrees; ties broken by the canonical edge-list encoding."""
    _require_atomic(g)
    best = None
    for t in spanning_trees(g):
        excluded = sorted((e for e in g.edges if e not in t), key=sorted)
        cycles = tuple(fundamental_cycle(t, e) for e in excluded)
        lengths = tuple(sorted(len(c) for c in cycles))
        key = (lengths, tuple(sorted(sorted(e) for e in t)))
        if best is None or key < best[0]:
            best = (key, t, tuple(excluded), cycles, lengths)
    _, t, excluded, cycles, lengths = best
    return MarkedCycleSet(g, t, excluded, cycles, lengths)


def cycle_complexity(c: frozenset, s, marked: MarkedCycleSet) -> tuple:
    """(r_5, ..., r_M): per length, how many cycles of the component `s`
    share an edge with c.  The count is inclusive: c shares every edge
    with itself."""
    cycles = set(s)
    if c not in cycles:
        raise RigidityError("cycle does not belong to the component")
    m = max(len(x) for x in marked.cycles)
    counts = {l: 0 for l in range(5, m + 1)}
    for other in cycles:
        if c & other:
            counts[len(other)] += 1
    return tuple(counts[l] for l in range(5, m + 1))


def components(marked: MarkedCycleSet):
    """All sets of marked cycles whose union is connected and free of cut
    vertices."""
    out = []
    for r in range(1, len(marked.cycles) + 1):
        for combo in itertools.combinations(marked.cycles, r):
            union_edges = frozenset().union(*combo)
            vs = {v for e in union_edges for v in e}
            sub = SimplicialGraph(tuple(sorted(vs)), union_edges)
            if not graphs.is_connected(sub):
                continue
            if any(not graphs.is_connected(
                       graphs.induced_subgraph(sub, vs - {v}))
                   for v in vs) and len(vs) > 1:
                continue
            out.append(frozenset(combo))
    return out


def component_signature(s, marked: MarkedCycleSet) -> tuple:
    """Counts of cycles per (length ascending, complexity descending)."""
    keyed = [(len(c), cycle_complexity(c, s, marked)) for c in sorted(s, key=sorted)]
    order = sorted(set(keyed), key=lambda k: (k[0], tuple(-x for x in k[1])))
    return tuple((l, comp, keyed.count((l, comp))) for l, comp in order)


def component_compare(s1, s2, marked: MarkedCycleSet) -> int:
    """-1, 0 or 1 comparing component signatures lexicographically; equal
    signatures do not imply equal subgraphs."""
    a, b = component_signature(s1, marked), component_signature(s2, marked)
    return (a > b) - (a < b)


# ---------------------------------------------------------------------------
# the rigidity experiment

@dataclass(frozen=True)
class Decomposition:
    conjugator: tuple           # canonical letters of g
    automorphism: tuple         # ((v, sigma(v)), ...)


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of `rigidity_experiment`.  The decomposition of each
    embedding is solved, not searched for, so every entry of `failures` is
    a genuine counterexample to atomic rigidity: an embedding that is not
    a graph automorphism followed by a conjugation.  Decompositions and
    failures are listed in the order of the full enumeration: patch by
    patch, and within a patch in `graphs.find_induced_embeddings` order,
    each embedding at its first patch."""
    graph: SimplicialGraph
    depth: int
    patch_count: int
    embeddings_found: int
    decompositions: tuple       # of the embeddings that decompose, in order
    failures: tuple             # EmbeddingCertificates with no decomposition

    def to_json(self):
        return {
            "depth": self.depth,
            "patches": self.patch_count,
            "embeddings": self.embeddings_found,
            "failures": len(self.failures),
            "decompositions": [
                {"conjugator": words.format_letters(d.conjugator),
                 "automorphism": dict(d.automorphism)}
                for d in self.decompositions
            ],
        }


def _join(g, j, w):
    """Least reduced word with both j and w as right factors: peel their
    greatest common suffix off j and prepend the rest of j to w.  Only
    meaningful when such a word exists; callers check the result.

    j and w are reduced, so reducing j·w⁻¹ cancels exactly that common
    suffix, each pair deleting one letter of j; the letters of j left in
    front of the reduced word are the rest of j."""
    out = words._reduce(g, j + words.inverse_letters(w))
    cancelled = (len(j) + len(w) - len(out)) // 2
    rest = tuple(out[:len(j) - cancelled])
    return words.normal_form(GroupWord(g, rest + w)).letters


def _base_map(cert: embeddings.EmbeddingCertificate):
    """sigma: base vertex -> domain vertex whose image has that base, when
    the bases are a bijection onto the codomain's vertices and sigma is a
    graph isomorphism from the codomain onto the domain; else None.  A
    bijection is injective on edges, so it carries the codomain's edges
    onto the domain's iff it maps every codomain edge to a domain edge and
    the edge counts are equal."""
    g = cert.codomain
    dom = cert.domain
    m = cert.as_dict()
    sigma = {cg.base: u for u, cg in m.items()}
    if (set(m) != set(dom.vertices) or set(dom.vertices) != set(g.vertices)
            or set(sigma) != set(g.vertices)):
        return None
    if frozenset(frozenset(sigma[x] for x in e) for e in g.edges) != dom.edges:
        return None
    return sigma


def decompose_embedding(cert: embeddings.EmbeddingCertificate):
    """(g, sigma) with image(sigma(v)) = v^g for all v, or None.

    Both parts are forced by the certificate.  sigma(v) is the domain
    vertex whose image has base v, and must be a graph isomorphism from the
    codomain onto the domain.  With c_v the coset representative of C(v)·g
    carried by that image, every c_v is a right factor of the reduced g
    whose left cofactor lies in C(v); so g is the join of the c_v under the
    suffix order, up to the centre, which is trivial for an atomic graph.
    The join is checked against every coset, so None means no decomposition
    exists: a genuine counterexample to rigidity, not an incomplete search.
    """
    sigma = _base_map(cert)
    if sigma is None:
        return None
    g = cert.codomain
    m = cert.as_dict()
    conj = ()
    for v in g.vertices:
        conj = _join(g, conj, m[sigma[v]].conj)
    cand = GroupWord(g, conj)
    if any(words.coset_canonical(v, cand).letters != m[sigma[v]].conj
           for v in g.vertices):
        return None
    return Decomposition(conj, tuple(sorted(sigma.items())))


def _patch_copies(plan, p: patches.Patch):
    """(cgs, copies): the conjugate generators of p in the order of its
    `search_view`, and the embeddings into p that meet the symmetry-breaking
    conditions of the domain's search `plan`, one per image set, as tuples
    of indices into cgs in `plan.order`.  A patch whose degree counts
    cannot hold the domain has no copies, and is not given a view."""
    if not graphs._can_hold(plan, p.degree_counts):
        return (), []
    cgs, nbrs, fits = p.search_view
    return cgs, graphs._embedding_search(plan, nbrs, fits=fits)


def rigidity_experiment(g: SimplicialGraph, depth: int) -> RigidityReport:
    """Enumerate every induced embedding of g into every patch reachable
    by `depth` doublings and attempt the (conjugator, automorphism)
    decomposition for each; failures are collected, not raised.

    The search and the word algebra run once per conjugate copy of g, that
    is, once per image set; every other embedding onto the set follows by
    composition with Aut(g), which is computed once.

    - Two embeddings m, m' onto one image set differ by m^-1 ∘ m', an
      automorphism of g.  So the embeddings onto the set are m ∘ tau for
      tau in Aut(g), and a search under the symmetry-breaking conditions of
      Aut(g) (`graphs._symmetry_conditions`) yields exactly one of them.
      A patch that contains an image set holds every embedding onto it, so
      an embedding was met in an earlier patch exactly when its image set
      was, and a set of image sets replaces a set of mappings.
    - Verification depends on the set alone: m ∘ tau has the images of m,
      and tau carries the domain's edges onto themselves.  The copy m is
      verified, and an unverifiable copy raises.
    - Let sigma_m be the base map of m (`decompose_embedding`): the domain
      vertex whose image has base v.  The base map of m ∘ tau is
      tau^-1 ∘ sigma_m, an isomorphism exactly when sigma_m is.  The
      conjugator is the join of the images taken by base, and the coset
      check reads each image with base v, so it depends on the set alone.
      So m ∘ tau decomposes, as (the copy's conjugator, tau^-1 ∘ sigma_m),
      exactly when m does.
    - When m decomposes, put c = m ∘ sigma_m, which sends v to the image with
      base v.  For rho in Aut(g) the embedding c ∘ rho^-1 is m ∘ tau with
      tau = sigma_m ∘ rho^-1, whose base map is rho.  So the copy expands to
      the embeddings c ∘ rho^-1, each decomposing as (the conjugator, rho),
      and the |Aut(g)| rho are shared by every image set.

    Each patch's new embeddings are sorted on their tuple of codomain
    indices in search order, which is the order `find_induced_embeddings`
    enumerates them in, so the report is that of decomposing every
    embedding of every patch in turn.  A certificate is built only for a
    failure."""
    _require_atomic(g)
    family = patches.doubling_family(g, depth)
    auts = graphs.automorphisms(g)
    plan = graphs._domain_plan(g, graphs._symmetry_conditions(g, auts))
    order = plan.order
    # per rho: rho^-1 in search order, and rho as a decomposition's automorphism
    inverses = [{w: v for v, w in rho.items()} for rho in auts]
    expansion = [(tuple(inv[u] for u in order), tuple(sorted(rho.items())))
                 for inv, rho in zip(inverses, auts)]
    seen = set()
    decs, fails = [], []
    found = 0
    for p in family:
        cgs, copies = _patch_copies(plan, p)

        def certificate(key):
            return embeddings.EmbeddingCertificate(
                g, p.graph, tuple(sorted(zip(order, (cgs[k] for k in key)))), p.provenance)

        new = []    # (codomain indices in search order, Decomposition or None)
        for copy in copies:
            images = frozenset(cgs[k] for k in copy)
            if images in seen:
                continue
            seen.add(images)
            cert = certificate(copy)
            if not embeddings.verify_certificate(cert):
                raise RigidityError("patch produced an unverifiable embedding")
            dec = decompose_embedding(cert)
            m = dict(zip(order, copy))
            if dec is None:
                new.extend((tuple(m[u] for u in inv), None) for inv, _ in expansion)
            else:
                c = {v: m[u] for v, u in dec.automorphism}
                new.extend((tuple(c[u] for u in inv), Decomposition(dec.conjugator, rho))
                           for inv, rho in expansion)
        new.sort(key=lambda item: item[0])
        found += len(new)
        for key, dec in new:
            if dec is not None:
                decs.append(dec)
            else:
                fails.append(certificate(key))
    return RigidityReport(g, depth, len(family), found, tuple(decs), tuple(fails))
