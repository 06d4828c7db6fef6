"""Simplicial n-trees: complexes built from n-simplices glued along
(n-1)-simplices, their pieces, vertex coloring, the labelled bipartite
invariant graph, doubling, and the constructive embedding of an n-tree
into the extension graph of one it weakly covers.

The derivations of a complex (skeleton, shared faces, validity, coloring,
pieces, the invariant graph and its vertex ids) are cached on the
complex's value in small bounded caches, so a complex rebuilt equal
elsewhere (as `classify` rebuilds one from its skeleton) is derived once.
Cached results are read-only: mappings are `MappingProxyType`, face sets
`frozenset` and piece lists `tuple`.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from . import bisim, graphs, patches, words
from .graphs import SimplicialGraph
from .words import GroupWord


class NTreeError(ValueError):
    pass


# One pipeline step touches a domain, a codomain, a double and the
# complexes rebuilt from their skeletons; a larger cache only holds more
# dead complexes.
NTREE_CACHE_SIZE = 8


@dataclass(frozen=True)
class NTreeComplex:
    n: int
    simplices: frozenset    # of frozensets of vertex names, each of size n+1

    def __post_init__(self):
        for s in self.simplices:
            if len(s) != self.n + 1:
                raise NTreeError(f"simplex {sorted(s)} is not {self.n}-dimensional")

    @property
    def vertices(self):
        out = set()
        for s in self.simplices:
            out |= s
        return frozenset(out)


def complex_(n, simplices) -> NTreeComplex:
    return NTreeComplex(n, frozenset(frozenset(map(str, s)) for s in simplices))


@lru_cache(maxsize=NTREE_CACHE_SIZE)
def skeleton(k: NTreeComplex) -> SimplicialGraph:
    edges = set()
    for s in k.simplices:
        edges.update(frozenset(p) for p in itertools.combinations(sorted(s), 2))
    return graphs.graph(k.vertices, [tuple(e) for e in edges])


def _faces(s, n):
    """The (n-1)-faces of an n-simplex."""
    return (frozenset(f) for f in itertools.combinations(s, n))


@lru_cache(maxsize=NTREE_CACHE_SIZE)
def shared_faces(k: NTreeComplex) -> MappingProxyType:
    """(n-1)-simplices bounding at least two n-simplices, mapped to the
    frozenset of simplices they bound."""
    bound = {}
    for s in k.simplices:
        for f in _faces(s, k.n):
            bound.setdefault(f, set()).add(s)
    return MappingProxyType({f: frozenset(fs) for f, fs in bound.items()
                             if len(fs) >= 2})


@lru_cache(maxsize=NTREE_CACHE_SIZE)
def validate_ntree(k: NTreeComplex):
    """(True, None) iff k is buildable by gluing n-simplices along
    (n-1)-simplices.

    Decided by peeling: an outer simplex meets the union of the others in
    exactly an (n-1)-face that the rest also carries; removing it inverts
    one gluing, and reaching a single simplex certifies buildability.
    (A leaf's face-partner is never itself peelable, so greedy peeling
    loses nothing.)  Cross-validated at desk scale against a brute-force
    gluing-sequence oracle in the tests; mere acyclicity of the
    simplex/face incidence is not enough, since distant simplices may
    share stray vertices.

    Each round peels the first outer simplex in sorted order.  Counts of
    the remaining simplices at each vertex and (n-1)-face stand in for the
    union of the rest: s meets the others in the vertices counted more
    than once, and that face is carried by another simplex iff its count
    exceeds one.
    """
    if not k.simplices:
        return False, "no simplices"
    order = sorted(k.simplices, key=sorted)
    at_vertex = Counter(v for s in order for v in s)
    at_face = Counter(f for s in order for f in _faces(s, k.n))
    while len(order) > 1:
        for i, s in enumerate(order):
            shared = frozenset(v for v in s if at_vertex[v] > 1)
            if len(shared) == k.n and at_face[shared] > 1:
                break
        else:
            return False, "no outer simplex to peel off"
        del order[i]
        at_vertex.subtract(s)
        at_face.subtract(_faces(s, k.n))
    return True, None


@lru_cache(maxsize=NTREE_CACHE_SIZE)
def vertex_coloring(k: NTreeComplex) -> MappingProxyType:
    """Colors 1..n+1 with every n-simplex receiving each color once.

    Deterministic: the lexicographically least simplex seeds the identity
    coloring on its sorted vertices, then colors propagate across shared
    faces.  Unique up to a global permutation of colors.
    """
    ok, why = validate_ntree(k)
    if not ok:
        raise NTreeError(f"not an n-tree: {why}")
    colors = {}

    def fill(s):
        missing_vs = [v for v in s if v not in colors]
        used = {colors[v] for v in s if v in colors}
        free = [c for c in range(1, k.n + 2) if c not in used]
        for v, c in zip(sorted(missing_vs), free):
            colors[v] = c

    seed = min(k.simplices, key=lambda s: tuple(sorted(s)))
    fill(seed)
    faces = shared_faces(k)
    done = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for s in frontier:
            for f in _faces(s, k.n):
                for t in faces.get(f, frozenset()) - done:
                    fill(t)
                    done.add(t)
                    nxt.append(t)
        frontier = nxt
    if done != set(k.simplices):
        raise NTreeError("coloring propagation did not reach every simplex")
    return MappingProxyType(colors)


@dataclass(frozen=True)
class Piece:
    spine: frozenset
    tips: frozenset

    def simplices(self):
        return [self.spine | {t} for t in sorted(self.tips)]


@lru_cache(maxsize=NTREE_CACHE_SIZE)
def pieces(k: NTreeComplex) -> tuple:
    """Stars of (n-1)-simplices bounding at least two n-simplices."""
    return tuple(sorted(
        (Piece(f, frozenset(next(iter(s - f)) for s in fs))
         for f, fs in shared_faces(k).items()),
        key=lambda p: tuple(sorted(p.spine)),
    ))


@lru_cache(maxsize=NTREE_CACHE_SIZE)
def _gph_ids(k: NTreeComplex) -> tuple:
    """(piece -> p-vertex id, n-simplex -> f-vertex id): the names of the
    invariant graph's vertices, each computed once per complex."""
    return (MappingProxyType({p: "p:" + bisim.joined_name(p.spine, ",")
                              for p in pieces(k)}),
            MappingProxyType({s: "f:" + bisim.joined_name(s, ",")
                              for s in k.simplices}))


@lru_cache(maxsize=NTREE_CACHE_SIZE)
def build_gph(k: NTreeComplex) -> bisim.ColoredGraph:
    """The labelled bipartite tree with one p-vertex per piece (labelled by
    the color missing from its spine) and one f-vertex per n-simplex lying
    in more than one piece."""
    colors = vertex_coloring(k)
    ps = pieces(k)
    pid, fid = _gph_ids(k)
    membership = {}     # simplex -> pieces containing it
    for p in ps:
        for s in p.simplices():
            membership.setdefault(frozenset(s), []).append(p)
    fs = {s for s, inps in membership.items() if len(inps) >= 2}
    verts, cmap, edges = [], {}, []
    for p in ps:
        spine_colors = {colors[v] for v in p.spine}
        (plabel,) = set(range(1, k.n + 2)) - spine_colors
        verts.append(pid[p])
        cmap[pid[p]] = f"p{plabel}"
    for s in sorted(fs, key=fid.__getitem__):
        verts.append(fid[s])
        cmap[fid[s]] = "f"
        for p in membership[s]:
            edges.append((fid[s], pid[p]))
    return bisim.colored_graph(graphs.graph(verts, edges), cmap)


def _fresh(name, taken):
    cand = name + "'"
    while cand in taken:
        cand += "'"
    return cand


def double_ntree(k: NTreeComplex, v: str):
    """Double k along the closed star of v.  Returns the doubled complex
    together with the folding map (new vertex -> original vertex)."""
    if v not in k.vertices:
        raise NTreeError(f"unknown vertex {v!r}")
    star_simps = {s for s in k.simplices if v in s}
    star_verts = set().union(*star_simps)
    taken = set(k.vertices)
    rename = {}
    for w in sorted(k.vertices):
        if w in star_verts:
            rename[w] = w
        else:
            rename[w] = _fresh(w, taken)
            taken.add(rename[w])
    copies = {frozenset(rename[w] for w in s) for s in k.simplices}
    doubled = NTreeComplex(k.n, k.simplices | copies)
    ok, why = validate_ntree(doubled)
    if not ok:
        raise NTreeError(f"double failed to validate: {why}")
    fold = {rename[w]: w for w in k.vertices}
    fold.update({w: w for w in k.vertices})
    return doubled, fold


def induced_gph_map(k_big: NTreeComplex, k_small: NTreeComplex, vertex_map: dict):
    """Push a simplicial fold (vertex map k_big -> k_small) down to a map
    between the invariant graphs; raises if a piece or shared simplex has
    no counterpart downstairs."""
    pid_big, fid_big = _gph_ids(k_big)
    pid_small, fid_small = _gph_ids(k_small)
    down_pieces = {frozenset(p.spine): p for p in pieces(k_small)}
    f = {}
    for p in pieces(k_big):
        spine_img = frozenset(vertex_map[v] for v in p.spine)
        if spine_img not in down_pieces:
            raise NTreeError(f"piece spine {sorted(p.spine)} does not fold to a piece")
        f[pid_big[p]] = pid_small[down_pieces[spine_img]]
    up = build_gph(k_big)
    down = build_gph(k_small)
    # An image that is no n-simplex of k_small has no id there, and ids are
    # distinct names of distinct sets, so it is no vertex of `down` either.
    for vid, simplex in sorted((vid, s) for s, vid in fid_big.items()):
        if vid in up.graph:
            img = fid_small.get(frozenset(vertex_map[w] for w in simplex))
            if img not in down.graph:
                raise NTreeError(
                    f"shared simplex {sorted(simplex)} does not fold to one")
            f[vid] = img
    return f


# ---------------------------------------------------------------------------
# constructive embedding from a weak covering of invariant graphs

def weak_cover_to_embedding(delta: NTreeComplex, gamma: NTreeComplex, f: dict):
    """Given a weak covering f: gph(delta) -> gph(gamma), construct a
    verified induced embedding of delta's 1-skeleton into the extension
    graph of gamma's 1-skeleton.

    Walks gph(delta) from a root piece; every simplex of delta is sent to
    a conjugate of a color-matched simplex of gamma, all of its vertices
    sharing one conjugator.  Extra tips of a piece are rerouted through
    powers of a sibling tip, which commute with the spine but with nothing
    else, so the images stay induced.  The certificate is re-verified by
    the embedding checker before being returned.
    """
    from . import embeddings

    g_delta = skeleton(delta)
    g_gamma = skeleton(gamma)
    gph_d = build_gph(delta)
    gph_g = build_gph(gamma)
    ok, why = bisim.check_weak_covering(f, gph_d, gph_g)
    if not ok:
        raise NTreeError(f"map is not a weak covering: {why}")

    col_d = vertex_coloring(delta)
    col_g = vertex_coloring(gamma)

    images = {}          # delta vertex -> (gamma vertex, conjugator letters)
    counter = itertools.count(1)

    def assign(v, gamma_vertex, conj):
        prev = images.get(v)
        new = (gamma_vertex, words.coset_canonical(gamma_vertex, conj).letters)
        if prev is not None:
            if prev != new:
                raise NTreeError(f"inconsistent image for {v}")
            return
        images[v] = new

    adj = graphs.adjacency(gph_d.graph)
    pid_d, fid_d = _gph_ids(delta)
    pid_g, fid_g = _gph_ids(gamma)
    pieces_d = {pid: p for p, pid in pid_d.items()}
    pieces_g = {pid: p for p, pid in pid_g.items()}
    simplices_g = {fid: s for s, fid in fid_g.items()}

    def handle_piece(pid, entry, entry_conj, done):
        """Map the piece `pid`, entered through the shared simplex `entry`
        (None at the root) with conjugator `entry_conj`."""
        piece = pieces_d[pid]
        piece_g = pieces_g[f[pid]]
        spine_by_color = {col_g[v]: v for v in piece_g.spine}
        tips_g = sorted(piece_g.tips)
        g_p = entry_conj if entry_conj is not None else words.identity(g_gamma)
        for v in piece.spine:
            assign(v, spine_by_color[col_d[v]], g_p)

        used_targets = set()
        if entry is not None:
            target = next(iter(simplices_g[f[fid_d[entry]]] - piece_g.spine))
            used_targets.add(target)
            assign(next(iter(entry - piece.spine)), target, g_p)

        for s in piece.simplices():
            if s == entry:
                continue
            fid = fid_d[s]
            tip = next(iter(s - piece.spine))
            if fid in gph_d.graph:
                target = next(iter(simplices_g[f[fid]] - piece_g.spine))
            else:
                free = [t for t in tips_g if t not in used_targets]
                target = free[0] if free else tips_g[0]
            if target not in used_targets:
                conj = g_p
            else:
                # duplicate copy of this tip: conjugate by a fresh power of
                # a sibling tip, which fixes the spine only
                sibling = next(t for t in tips_g if t != target)
                m = next(counter)
                conj = GroupWord(g_gamma, ((sibling, 1),) * m) * g_p
            used_targets.add(target)
            assign(tip, target, conj)
            if fid in gph_d.graph:
                for nxt in sorted(adj[fid]):
                    if nxt != pid and nxt not in done:
                        done.add(nxt)
                        handle_piece(nxt, s, conj, done)

    if pieces_d:
        root = min(pieces_d)
        handle_piece(root, None, None, {root})
    else:
        # no pieces on either side: both are single simplices, matched by
        # color with no conjugator
        (s_d,) = delta.simplices
        (s_g,) = gamma.simplices
        by_color = {col_g[v]: v for v in s_g}
        images.update((v, (by_color[col_d[v]], ())) for v in s_d)

    if set(images) != set(g_delta.vertices):
        raise NTreeError("embedding did not reach every vertex")
    mapping = {v: patches.ConjugateGenerator(base, conj)
               for v, (base, conj) in images.items()}
    cert = embeddings.EmbeddingCertificate(
        g_delta, g_gamma, tuple(sorted(mapping.items())), ())
    if not embeddings.verify_certificate(cert):
        raise NTreeError("constructed certificate failed verification")
    return cert


# ---------------------------------------------------------------------------
# serialization

def complex_to_json(k: NTreeComplex) -> str:
    return json.dumps({"n": k.n,
                       "simplices": sorted(sorted(s) for s in k.simplices)})


def _is_simplex(x):
    return isinstance(x, list) and all(type(v) in (str, int) for v in x)


def complex_from_json(text: str) -> NTreeComplex:
    data = graphs.json_object(text, ("n", "simplices"), NTreeError)
    if type(data["n"]) is not int or data["n"] < 0:
        raise NTreeError("'n' must be a non-negative integer")
    return complex_(data["n"], graphs.check_list(
        data["simplices"], _is_simplex,
        "'simplices' must be a list of lists of vertex names", NTreeError))
