"""Finite simple graphs with a fixed vertex order, structural predicates,
and induced-subgraph search.

Vertex names are opaque strings; the total order on vertices is
lexicographic and fixed at construction.  All graphs are immutable and
hashable, so derived data (the adjacency and closed-star maps, the hash)
is stored on the graph.

Induced-subgraph search is backtracking with forward checking: each
unmatched domain vertex keeps a set of candidate images, first filtered
by degree and then narrowed by every vertex mapped, and a branch is cut
as soon as a set is empty.  Only branches with no embedding are cut, so
the embeddings, and their order, are those of plain backtracking in the
same domain and codomain orders.  Under the symmetry-breaking conditions
of the domain's automorphism group the same search yields one embedding
per image set.  The search body reads the codomain as one neighbour bit
mask per vertex index, not as a named graph, and the domain as a plan
built once; so a caller holding masks (a patch of the extension graph)
searches many codomains without building a graph for each.

Before any backtracking, degrees are counted (Ullmann, J. ACM 1976): an
induced embedding is injective and maps a vertex of degree d to one of
degree at least d, so a codomain holds the domain only if, for every d,
it has at least as many vertices of degree at least d as the domain has
(`_can_hold`).  The counts do not depend on the vertex order, so a patch
tests them before it names, sorts or permutes its vertices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class SimplicialGraph:
    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self):
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise GraphError("repeated vertex names")
        if tuple(sorted(self.vertices)) != self.vertices:
            raise GraphError("vertices must be sorted")
        for e in self.edges:
            if len(e) != 2:
                raise GraphError(f"bad edge {set(e)}")
            if not e <= seen:
                raise GraphError(f"edge endpoint not declared: {set(e)}")
        object.__setattr__(self, "_hash", hash((self.vertices, self.edges)))

    @cached_property
    def vertex_set(self) -> frozenset:
        """The vertices as a frozenset, built on first use; not part of
        equality or hashing."""
        return frozenset(self.vertices)

    @cached_property
    def adjacency(self) -> MappingProxyType:
        """Read-only map of each vertex to the frozenset of its neighbours,
        built on first use; not part of equality or hashing."""
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = e
            adj[a].add(b)
            adj[b].add(a)
        return MappingProxyType({v: frozenset(ns) for v, ns in adj.items()})

    @cached_property
    def stars(self) -> MappingProxyType:
        """Read-only map of each vertex to its closed star, built on first
        use; not part of equality or hashing."""
        return MappingProxyType({v: ns | {v} for v, ns in self.adjacency.items()})

    def __hash__(self):
        # Computed once in __post_init__, outside equality: the dataclass
        # hash would rehash the vertex tuple on every call, and graphs key
        # the word and patch caches.
        return self._hash

    def __contains__(self, v):
        return v in self.vertex_set

    @property
    def n(self):
        return len(self.vertices)

    def has_edge(self, u, v):
        return frozenset((u, v)) in self.edges


def graph(vertices, edges=()) -> SimplicialGraph:
    """Build a graph from any iterables of names and vertex pairs."""
    vs = tuple(sorted(set(vertices)))
    es = frozenset(frozenset((str(a), str(b))) for a, b in edges)
    for e in es:
        if len(e) != 2:
            raise GraphError(f"self-loop on {set(e)}")
    return SimplicialGraph(vs, es)


def adjacency(g: SimplicialGraph) -> MappingProxyType:
    return g.adjacency


def link(g, v):
    """Neighbours of v."""
    if v not in g:
        raise GraphError(f"unknown vertex {v!r}")
    return adjacency(g)[v]


def star(g, v):
    """v together with its neighbours (the closed star), as a frozenset."""
    if v not in g:
        raise GraphError(f"unknown vertex {v!r}")
    return g.stars[v]


def degree(g, v):
    return len(link(g, v))


def induced_subgraph(g, verts) -> SimplicialGraph:
    vs = set(verts)
    if not vs <= set(g.vertices):
        raise GraphError("not a subset of the vertex set")
    return SimplicialGraph(tuple(sorted(vs)), frozenset(e for e in g.edges if e <= vs))


def connected_components(g):
    seen, comps = set(), []
    for v in g.vertices:
        if v not in seen:
            comp = frozenset(_bfs_dist(g.adjacency, v))
            seen |= comp
            comps.append(comp)
    return comps


def is_connected(g):
    return g.n > 0 and len(_bfs_dist(g.adjacency, g.vertices[0])) == g.n


def _bfs_dist(adj, source):
    """The distance from `source` of each vertex it reaches, by breadth-first
    search in `adj`, a map of each vertex to its neighbours."""
    dist, level, d = {source: 0}, [source], 0
    while level:
        d += 1
        nxt = []
        for u in level:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        level = nxt
    return dist


def diameter(g):
    """Exact diameter, or None when g is disconnected or empty.

    A tree takes two BFS sweeps: in a tree the vertex farthest from any
    vertex ends a longest path, so the eccentricity of that vertex is the
    diameter.  Other graphs take the eccentricity of every vertex.
    """
    if g.n == 0 or not is_connected(g):
        return None
    if len(g.edges) == g.n - 1:
        far = _bfs_dist(g.adjacency, g.vertices[0])
        return max(_bfs_dist(g.adjacency, max(far, key=far.get)).values())
    best = 0
    for v in g.vertices:
        best = max(best, max(_bfs_dist(g.adjacency, v).values()))
    return best


def girth(g):
    """Length of a shortest cycle, or None for forests.

    A breadth-first search from each root in turn, level by level on the
    neighbour bit masks of `_masks`.  With the vertices at distance d from
    the root as level d, an edge inside level d closes a cycle of length at
    most 2d + 1, and a vertex of level d + 1 with two neighbours in level d
    one of length at most 2d + 2; a root on a shortest cycle finds it so,
    at the first level where it can.  A root's search stops at its first
    such level, or once 2d + 1 reaches the best cycle already found.  Each
    root is deleted after its search: a shortest cycle is found from its
    first vertex, while all its vertices are left.  No cycle is longer than
    n, so n + 1 stands for "none found".
    """
    nbrs = _masks(g.vertices, g.edges)
    n = len(nbrs)
    best = n + 1
    for root in range(n):
        bit = 1 << root
        seen = level = bit
        d = 0
        while level and 2 * d + 1 < best:
            nxt, found, rest = 0, 0, level
            while rest:
                low = rest & -rest
                rest ^= low
                m = nbrs[low.bit_length() - 1]
                if m & level:       # an edge inside level d
                    found = 2 * d + 1
                    break
                m &= ~seen
                if m & nxt:         # a vertex of level d + 1 with two parents
                    found = 2 * d + 2
                nxt |= m
            if found:
                best = found
                break
            seen |= nxt
            level = nxt
            d += 1
        # Delete the root: the later searches run on the rest of the graph.
        row, nbrs[root] = nbrs[root], 0
        while row:
            low = row & -row
            row ^= low
            nbrs[low.bit_length() - 1] ^= bit
    return best if best <= n else None


@dataclass(frozen=True)
class ShapeVerdict:
    kind: str           # clique | edgeless | tree | join_of_two_edgeless | other
    params: tuple
    also_edgeless: bool = False

    def to_json(self):
        return {"kind": self.kind, "params": list(self.params),
                "also_edgeless": self.also_edgeless}


def classify_shape(g) -> ShapeVerdict:
    """Recognize the elementary shapes: cliques, edgeless graphs, trees,
    and joins of two edgeless parts (complete bipartite graphs).

    Precedence: clique, edgeless, tree, join, other.  The single-vertex
    graph reports clique(1) flagged as also edgeless.  Stars are reported
    as trees, not joins; K_{m,n} with m, n >= 2 contains a square so the
    two verdicts never compete.

    The join parts are read off the first vertex: its neighbours B and the
    other vertices A.  g is a join of two edgeless parts iff every pair
    across A and B is an edge (|E| = |A|·|B|) and no edge lies inside A
    or inside B.
    """
    if g.n == 0:
        raise GraphError("empty graph has no shape")
    full = g.n * (g.n - 1) // 2
    if len(g.edges) == full:
        return ShapeVerdict("clique", (g.n,), also_edgeless=g.n == 1)
    if not g.edges:
        return ShapeVerdict("edgeless", (g.n,))
    if is_tree(g):
        return ShapeVerdict("tree", (diameter(g),))
    b = adjacency(g)[g.vertices[0]]
    a = g.vertex_set - b
    if (len(g.edges) == len(a) * len(b)
            and not any(e <= a or e <= b for e in g.edges)):
        return ShapeVerdict("join_of_two_edgeless", tuple(sorted((len(a), len(b)))))
    return ShapeVerdict("other", ())


def is_tree(g):
    """Connected with one edge fewer than vertices; the edge count is
    tested first, so most non-trees need no search."""
    return len(g.edges) == g.n - 1 and is_connected(g)


def universal_vertices(g):
    """The vertices adjacent to every other vertex."""
    return [v for v in g.vertices if degree(g, v) == g.n - 1]


def is_triangle_built(g):
    """No induced square and no induced path on four vertices.

    The minimal path obstruction is fixed as the 4-vertex induced path
    (both the length-3 and the diameter-3 reading give this graph).  A
    graph has neither iff every connected induced subgraph has a universal
    vertex (Golumbic, *Trivially perfect graphs*, Discrete Math. 1978), and
    a universal vertex lies on no induced square or path on four vertices.
    So each component must have universal vertices, and what is left after
    removing them must pass again; each round removes a vertex.
    """
    todo = [g]
    while todo:
        h = todo.pop()
        for comp in connected_components(h):
            sub = h if len(comp) == h.n else induced_subgraph(h, comp)
            uni = universal_vertices(sub)
            if not uni:
                return False
            todo.append(induced_subgraph(sub, comp.difference(uni)))
    return True


def is_chordal(g):
    """No induced cycle of length >= 4, via maximum cardinality search and
    a perfect elimination ordering check."""
    adj = adjacency(g)
    weight = {v: 0 for v in g.vertices}
    order, numbered = [], set()
    for _ in range(g.n):
        v = max((u for u in g.vertices if u not in numbered),
                key=lambda u: (weight[u], u))
        order.append(v)
        numbered.add(v)
        for w in adj[v]:
            if w not in numbered:
                weight[w] += 1
    order.reverse()   # elimination order
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        pivot = min(later, key=lambda w: pos[w])
        for w in later:
            if w != pivot and w not in adj[pivot]:
                return False
    return True


@dataclass(frozen=True)
class AtomicViolation:
    condition: str      # disconnected | valence1 | girth | separating_star | star_exhausts
    witness: tuple


def is_atomic(g):
    """(True, None) iff g is connected with min degree >= 2, girth >= 5 and
    no separating closed star; otherwise (False, violation).  Each star is
    tested on the neighbour masks: the rest of the graph is connected when
    a breadth-first search inside it reaches all of it (`_reach`)."""
    if not is_connected(g):
        return False, AtomicViolation("disconnected", ())
    for v in g.vertices:
        if degree(g, v) < 2:
            return False, AtomicViolation("valence1", (v,))
    gr = girth(g)
    if gr is not None and gr < 5:
        return False, AtomicViolation("girth", (gr,))
    nbrs = _masks(g.vertices, g.edges)
    everything = (1 << g.n) - 1
    for k, v in enumerate(g.vertices):
        rest = everything & ~(nbrs[k] | 1 << k)
        if not rest:
            return False, AtomicViolation("star_exhausts", (v,))
        if _reach(nbrs, rest & -rest, rest) != rest:
            return False, AtomicViolation("separating_star", (v,))
    return True, None


def _reach(nbrs, start, within=-1, steps=-1):
    """The vertices that a breadth-first search under the neighbour masks
    `nbrs` reaches from the bit mask `start` in at most `steps` steps, or
    in any number when `steps` is negative, moving only inside the bit
    mask `within`."""
    reached = level = start
    while level and steps:
        steps -= 1
        nxt = 0
        while level:
            low = level & -level
            level ^= low
            nxt |= nbrs[low.bit_length() - 1]
        level = nxt & within & ~reached
        reached |= level
    return reached


@dataclass(frozen=True)
class GraphEmbedding:
    domain: SimplicialGraph
    codomain: SimplicialGraph
    mapping: tuple              # ((domain vertex, codomain vertex), ...)

    def as_dict(self):
        return dict(self.mapping)


class _DomainPlan(NamedTuple):
    """What the embedding search needs of its domain, built once by
    `_domain_plan` and shared by every codomain searched."""
    order: list         # the domain vertices in the order they are matched
    degrees: list       # degrees[i]: the degree of order[i]
    later: list         # later[i][j]: is order[i + 1 + j] a neighbour of order[i]?
    cuts: list          # cuts[i]: (j, above) when order[i + 1 + j] must map
                        # above (above is true) or below the image of order[i]
    counts: list        # (d, c) for each domain degree d: c vertices have
                        # degree at least d


def _domain_plan(dom, conditions=()):
    """The search plan of `dom` under `conditions`, pairs (a, b) of domain
    vertices each requiring the index of the image of a to be below that
    of b (see `_embedding_search`).  The vertices are matched in descending
    degree, ties broken lexicographically: this is the one definition of
    the matching order."""
    adj = adjacency(dom)
    order = sorted(dom.vertices, key=lambda v: (-len(adj[v]), v))
    later = [[w in adj[v] for w in order[i + 1:]] for i, v in enumerate(order)]
    cuts = [[] for _ in order] if conditions else [()] * len(order)
    if conditions:
        pos = {v: i for i, v in enumerate(order)}
        for a, b in conditions:
            i, j = sorted((pos[a], pos[b]))
            cuts[i].append((j - i - 1, pos[a] == i))
    degrees = [len(adj[v]) for v in order]
    # degrees descend, so the vertices of degree at least d are a prefix
    counts = [(d, c) for c, d in enumerate(degrees, 1)
              if c == len(degrees) or degrees[c] < d]
    return _DomainPlan(order, degrees, later, cuts, counts)


def _masks(vertices, edges):
    """The neighbours of each of `vertices` under `edges`, vertex pairs, as
    bit masks over `vertices` in the order given: the codomain form that
    `_embedding_search` reads and the graph form that `girth` searches."""
    index = {v: k for k, v in enumerate(vertices)}
    nbrs = [0] * len(index)
    for a, b in edges:
        a, b = index[a], index[b]
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    return nbrs


def _fits(nbrs):
    """fits[d]: the vertices of degree at least d under the neighbour masks
    `nbrs`, as a bit mask over their order, for d up to the largest
    degree.  The bit counts, `[m.bit_count() for m in fits]`, are the
    degree counts that `_can_hold` reads, the same in every vertex order."""
    fits = [0] * (max((m.bit_count() for m in nbrs), default=0) + 1)
    for k, m in enumerate(nbrs):
        fits[m.bit_count()] |= 1 << k
    for d in range(len(fits) - 2, -1, -1):
        fits[d] |= fits[d + 1]
    return fits


def _can_hold(plan, counts):
    """False when counting degrees proves that no induced copy of the
    domain of `plan` lies in a codomain with counts[d] vertices of degree
    at least d, for d up to its largest degree.  An embedding is injective
    and maps a vertex of degree d to one of degree at least d, so the
    codomain needs, for every domain degree d, as many vertices of degree
    at least d as the domain has (Ullmann, J. ACM 1976).  A plain loop:
    every patch tried goes through this test, and most fail it."""
    top = len(counts)
    for d, c in plan.counts:
        if d >= top or counts[d] < c:
            return False
    return True


def _embedding_search(plan, nbrs, limit=None, fits=None, new_from=0):
    """The induced embeddings of the domain of `plan` into the codomain
    whose k-th vertex has the neighbour mask nbrs[k], at most `limit` of
    them, as tuples of codomain indices in `plan.order`, in lexicographic
    order, found by forward-checking backtracking.  `fits` is the
    codomain's `_fits(nbrs)`, built here unless the caller carries it; a
    caller that masks each of its sets to some vertices finds only the
    embeddings among them.  When `new_from` is nonzero, only the embeddings that use a codomain
    vertex of index `new_from` or more are found.

    A codomain whose degree counts fail `_can_hold` has no embedding, and
    is not searched.  Otherwise the images of each domain vertex are tried
    in codomain index order.  Every unmatched domain vertex keeps a
    candidate set, a bit mask over the codomain vertices, that starts as
    the vertices of at least its degree.  Mapping v -> c narrows the set of
    each later vertex to the neighbours of c if it is a neighbour of v, and
    to the non-neighbours of c otherwise, and removes c; a branch stops as
    soon as a set is empty.  The count and both filters remove only maps
    with no completion, so the embeddings come out in the same order as a
    search that tries every codomain vertex and checks each mapped pair,
    for every `limit`.

    Each condition of the plan is one more cut when the earlier-matched
    vertex of its pair is mapped: the set of the later one keeps only the
    indices above, or below, that image.  Until an image has an index of
    `new_from` or more, a branch also stops as soon as no candidate set has
    one, which removes only the embeddings that have none.
    """
    if fits is None:
        fits = _fits(nbrs)
    if (limit is not None and limit <= 0
            or not _can_hold(plan, [m.bit_count() for m in fits])):
        return []
    order, later, cuts = plan.order, plan.later, plan.cuts
    image = [None] * len(order)
    out = []

    def extend(i, cands, bound):
        """Map order[i:] with cands[j] the candidates of order[i + j], one
        image's bit at least `bound` unless it is 0; true once `limit`
        embeddings are found."""
        if i == len(order):
            out.append(tuple(image))
            return limit is not None and len(out) >= limit
        if bound and max(cands) < bound:
            return False
        untried, rest, rows, cut = cands[0], cands[1:], later[i], cuts[i]
        while untried:
            low = untried & -untried
            untried ^= low
            k = low.bit_length() - 1
            adj_c = nbrs[k]
            non_adj_c = ~(adj_c | low)
            narrowed = []
            for m, is_nbr in zip(rest, rows):
                m &= adj_c if is_nbr else non_adj_c
                if not m:
                    break
                narrowed.append(m)
            else:
                for j, above in cut:
                    narrowed[j] &= -(low << 1) if above else low - 1
                    if not narrowed[j]:
                        break
                else:
                    image[i] = k
                    if extend(i + 1, narrowed, 0 if low >= bound else bound):
                        return True
        return False

    # every domain degree passed `_can_hold`, so every set is nonempty
    extend(0, [fits[d] for d in plan.degrees], 1 << new_from if new_from else 0)
    return out


def find_induced_embeddings(dom, cod, limit=None):
    """Induced-subgraph embeddings dom -> cod, at most `limit` of them.

    Domain vertices are matched in `_domain_plan` order (descending degree,
    ties broken lexicographically) and the images of each are tried in codomain
    vertex order, so the enumeration is deterministic: the embeddings come
    out in lexicographic order of their codomain indices in that domain
    order.  The search is `_embedding_search`, with no conditions.
    """
    plan = _domain_plan(dom)
    names = cod.vertices
    return [GraphEmbedding(dom, cod, tuple(sorted(zip(plan.order, [names[k] for k in f]))))
            for f in _embedding_search(plan, _masks(cod.vertices, cod.edges), limit)]


def _symmetry_conditions(g, auts):
    """Symmetry-breaking conditions for the automorphism group `auts` of g
    (Grochow–Kellis, RECOMB 2007): pairs (v, w) asking the image of v to
    come before that of w.

    Repeatedly take the vertex v with the largest orbit under the group
    (ties go to the least name), ask v to map below every other vertex of
    its orbit, and pass to the stabiliser of v, until the group is trivial.
    The embeddings of g onto one image set are m ∘ tau for tau in the group;
    the conditions hold for exactly one of them, the one that sends each v
    in turn to the least image of its orbit.  So a search under them yields
    one embedding per image set."""
    group = list(auts)
    conditions = []
    while len(group) > 1:
        orbits = {v: {a[v] for a in group} for v in g.vertices}
        v = min(g.vertices, key=lambda u: (-len(orbits[u]), u))
        conditions.extend((v, w) for w in sorted(orbits[v]) if w != v)
        group = [a for a in group if a[v] == v]
    return conditions


def are_isomorphic(g, h):
    """A witness isomorphism as a dict, or None.  Exact for the desk
    scale this package targets (tens of vertices)."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    if sorted(degree(g, v) for v in g.vertices) != sorted(degree(h, v) for v in h.vertices):
        return None
    found = find_induced_embeddings(g, h, limit=1)
    return found[0].as_dict() if found else None


def automorphisms(g):
    """All automorphisms of g, as dicts."""
    return [e.as_dict() for e in find_induced_embeddings(g, g)]


# ---------------------------------------------------------------------------
# serialization

def to_json(g) -> str:
    return json.dumps({
        "vertices": list(g.vertices),
        "edges": sorted(sorted(e) for e in g.edges),
    })


def json_object(text: str, required, error=GraphError) -> dict:
    """Parse a JSON object holding every key in `required`; raise `error`
    with a one-line reason otherwise."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise error("expected a JSON object")
    for key in required:
        if key not in data:
            raise error(f"missing key {key!r}")
    return data


def check_list(value, item_ok, message, error=GraphError):
    """`value` itself when it is a list whose items all pass `item_ok`."""
    if not isinstance(value, list) or not all(map(item_ok, value)):
        raise error(message)
    return value


def _is_edge(x):
    return isinstance(x, list) and len(x) == 2 and all(isinstance(v, str) for v in x)


def graph_fields(data: dict, error=GraphError):
    """The checked (vertices, edges) of a parsed graph object."""
    return (check_list(data["vertices"], lambda v: isinstance(v, str),
                       "'vertices' must be a list of strings", error),
            check_list(data.get("edges", []), _is_edge,
                       "'edges' must be a list of vertex-name pairs", error))


def from_json(text: str) -> SimplicialGraph:
    return graph(*graph_fields(json_object(text, ("vertices",))))


def from_dot(text: str) -> SimplicialGraph:
    """A minimal undirected DOT subset: `graph name { a -- b; c; }`."""
    start, end = text.find("{"), text.rfind("}")
    if start < 0 or end < start:
        raise GraphError("DOT input has no { ... } body")
    body = text[start + 1:end]
    verts, edges = [], []
    for stmt in body.replace("\n", ";").split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        if "--" in stmt:
            chain = [t.strip().strip('"') for t in stmt.split("--")]
            verts.extend(chain)
            edges.extend(zip(chain, chain[1:]))
        else:
            verts.append(stmt.strip('"'))
    return graph(verts, edges)


def load_graph(path) -> SimplicialGraph:
    text = open(path).read()
    if text.lstrip().startswith("{"):
        return from_json(text)
    return from_dot(text)
