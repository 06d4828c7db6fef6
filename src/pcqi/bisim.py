"""Colored graphs, weak coverings, and bisimilarity.

A weak covering is a color-preserving surjective graph homomorphism with
the edge-lifting property: every edge at the image of a vertex lifts to
an edge at that vertex.  Two colored graphs are bisimilar when they admit
weak coverings onto a common quotient; for finite graphs this is decided
by comparing minimal quotients, computed by coarsest stable partition
refinement.

`minimal_quotient` is cached on the colored graph's value in a small
bounded cache, so a gph that several decisions share is refined once; its
vertex map is read-only.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

from . import graphs
from .graphs import SimplicialGraph


class BisimError(ValueError):
    pass


# One n-tree pipeline step decides bisimilarity of the gphs of a complex,
# its double and a partner complex; a few steps' worth of quotients is held.
QUOTIENT_CACHE_SIZE = 16


@dataclass(frozen=True)
class ColoredGraph:
    graph: SimplicialGraph
    color_items: tuple      # ((vertex, color), ...) sorted

    def color(self, v):
        return self.colors[v]

    @cached_property
    def colors(self) -> MappingProxyType:
        """Read-only map of vertex to color, built on first use; not part
        of equality or hashing."""
        return MappingProxyType(dict(self.color_items))


def colored_graph(g: SimplicialGraph, colors: dict) -> ColoredGraph:
    if set(colors) != set(g.vertices):
        raise BisimError("colors must cover exactly the vertex set")
    return ColoredGraph(g, tuple(sorted((v, str(c)) for v, c in colors.items())))


def check_weak_covering(f: dict, up: ColoredGraph, down: ColoredGraph):
    """(True, None), or (False, reason) with the first violation found."""
    g1, g2 = up.graph, down.graph
    if set(f) != set(g1.vertices):
        return False, "map is not total on the domain"
    if not set(f.values()) <= set(g2.vertices):
        return False, "map leaves the codomain"
    c1, c2 = up.colors, down.colors
    for v, w in f.items():
        if c1[v] != c2[w]:
            return False, f"color mismatch at {v}"
    adj1 = graphs.adjacency(g1)
    adj2 = graphs.adjacency(g2)
    for e in g1.edges:
        a, b = tuple(e)
        if f[a] == f[b] or not g2.has_edge(f[a], f[b]):
            return False, f"edge {sorted(e)} does not map to an edge"
    for v in g1.vertices:
        have = {f[u] for u in adj1[v]}
        for w in adj2[f[v]]:
            if w not in have:
                return False, f"edge ({f[v]}, {w}) has no lift at {v}"
    if set(f.values()) != set(g2.vertices):
        return False, "map is not surjective"
    return True, None


def properly_colored(cg: ColoredGraph) -> bool:
    """No edge joins two vertices of the same color (always true for the
    bipartite p/f invariant trees)."""
    colors = cg.colors
    return all(colors[a] != colors[b] for e in cg.graph.edges
               for a, b in [tuple(e)])


def _stable_partition(cg: ColoredGraph):
    """Coarsest partition refining colors in which any two vertices of a
    class see the same set of classes across edges."""
    adj = graphs.adjacency(cg.graph)
    colors = cg.colors
    block = {v: colors[v] for v in cg.graph.vertices}
    while True:
        ids = {}    # signature -> class id, numbered in first-seen vertex order
        new = {v: ids.setdefault((block[v], frozenset(block[u] for u in adj[v])), len(ids))
               for v in cg.graph.vertices}
        if len(ids) == len(set(block.values())):
            return new
        block = new


def joined_name(members, sep) -> str:
    """The sorted `members` joined by `sep`, with `\\` and `sep` inside a
    member escaped by a backslash, so that distinct sets never share a
    name.  When the plain join holds no backslash and one `sep` per gap,
    no member needs escaping, and the plain join is that name."""
    names = sorted(members)
    joined = sep.join(names)
    if "\\" not in joined and joined.count(sep) == len(names) - 1:
        return joined
    return sep.join(v.replace("\\", "\\\\").replace(sep, "\\" + sep)
                    for v in names)


def _quotient(cg: ColoredGraph, classes):
    """((quotient, vertex -> quotient-vertex map), None) for a partition of
    cg's vertices into `classes`, or (None, reason) when the quotient map
    is not a weak covering.  Quotient vertices are named by their class
    contents joined by `|`, and take their members' color; the map is
    read-only."""
    name = {}
    for cls in classes:
        name.update(dict.fromkeys(cls, joined_name(cls, "|")))
    qmap = {v: name[v] for v in cg.graph.vertices}
    qedges = [(qmap[a], qmap[b]) for a, b in map(tuple, cg.graph.edges)
              if qmap[a] != qmap[b]]
    quotient = colored_graph(graphs.graph(qmap.values(), qedges),
                             {qmap[v]: c for v, c in cg.colors.items()})
    ok, why = check_weak_covering(qmap, cg, quotient)
    return ((quotient, MappingProxyType(qmap)), None) if ok else (None, why)


@lru_cache(maxsize=QUOTIENT_CACHE_SIZE)
def minimal_quotient(cg: ColoredGraph):
    """(quotient ColoredGraph, read-only vertex -> quotient-vertex map),
    cached on the value of `cg`.

    Quotient vertices are named by the sorted class contents, so equal
    inputs give identical quotients.  Requires a properly colored input:
    with monochrome edges the coarsest stable partition may merge
    adjacent vertices, which no simple-graph quotient can realize.
    """
    if not properly_colored(cg):
        raise BisimError("monochrome edge: minimal quotient undefined")
    classes = {}
    for v, b in _stable_partition(cg).items():
        classes.setdefault(b, []).append(v)
    found, why = _quotient(cg, classes.values())
    if found is None:
        raise BisimError(f"quotient is not a weak covering: {why}")
    return found


def colored_isomorphic(a: ColoredGraph, b: ColoredGraph):
    """A color-preserving isomorphism as a dict, or None."""
    found = graphs._isomorphisms(a.graph, b.graph, (a.colors, b.colors), 1)
    return found[0] if found else None


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def all_quotients(cg: ColoredGraph):
    """Every (quotient, map) arising from a partition into independent
    color-homogeneous classes whose quotient map is a weak covering.
    Exponential; the fallback path for small improperly-colored inputs."""
    colors = cg.colors
    out = []
    for part in _set_partitions(list(cg.graph.vertices)):
        if any(len({colors[v] for v in cls}) > 1 for cls in part):
            continue
        if any(cg.graph.has_edge(u, v) for cls in part
               for u, v in itertools.combinations(cls, 2)):
            continue
        found, _ = _quotient(cg, part)
        if found is not None:
            out.append(found)
    return out


def recolor(cg: ColoredGraph, perm: dict) -> ColoredGraph:
    return colored_graph(cg.graph,
                         {v: perm.get(c, c) for v, c in cg.colors.items()})


def _first_common_quotient(a: ColoredGraph, b: ColoredGraph, perms):
    """(True, perm, witness) for the first `perm` in `perms` and quotient
    pair (qa, qb) with qa recolored by `perm` colored-isomorphic to qb, else
    (False, None, None).

    The quotients are the minimal ones when both inputs are properly
    colored, and all of them otherwise (exhaustive, small graphs only).
    Each side's are taken once: a bijective color renaming keeps every
    partition and weak covering, and quotient vertices are named by class
    contents, so the recolored quotients are the recolored graph's.
    """
    if properly_colored(a) and properly_colored(b):
        quotients_a, quotients_b = [minimal_quotient(a)], [minimal_quotient(b)]
    elif max(a.graph.n, b.graph.n) > 8:
        raise BisimError("monochrome edges on a graph too large for the "
                         "exhaustive fallback")
    else:
        quotients_a, quotients_b = all_quotients(a), all_quotients(b)
    for perm in perms:
        for qa, ma in quotients_a:
            recolored = recolor(qa, perm)
            for qb, mb in quotients_b:
                iso = colored_isomorphic(recolored, qb)
                if iso is not None:
                    return True, perm, {
                        "quotient": qb,
                        "map_a": {v: iso[ma[v]] for v in a.graph.vertices},
                        "map_b": dict(mb),
                    }
    return False, None, None


def bisimilar(a: ColoredGraph, b: ColoredGraph):
    """(True, witness) with a common quotient and both covering maps, or
    (False, None)."""
    ok, _, witness = _first_common_quotient(a, b, [{}])
    return ok, witness


def bisimilar_up_to_pcolor_permutation(a: ColoredGraph, b: ColoredGraph, n: int):
    """Try every permutation of the piece colors p1..p{n+1} on the first
    graph; (True, permutation, witness) on the first success."""
    palette = [f"p{i}" for i in range(1, n + 2)]
    for cg in (a, b):
        bad = set(cg.colors.values()) - set(palette) - {"f"}
        if bad:
            raise BisimError(f"unexpected colors {sorted(bad)}")
    return _first_common_quotient(
        a, b, (dict(zip(palette, images))
               for images in itertools.permutations(palette)))


# ---------------------------------------------------------------------------
# serialization

def colored_to_json(cg: ColoredGraph) -> str:
    return json.dumps({
        "vertices": list(cg.graph.vertices),
        "edges": sorted(sorted(e) for e in cg.graph.edges),
        "colors": dict(cg.color_items),
    })


def colored_from_json(text: str) -> ColoredGraph:
    data = graphs.json_object(text, ("vertices", "colors"), BisimError)
    g = graphs.graph(*graphs.graph_fields(data, BisimError))
    colors = data["colors"]
    if not isinstance(colors, dict) or not all(
            type(c) in (str, int) for c in colors.values()):
        raise BisimError("'colors' must map vertex names to strings or integers")
    return colored_graph(g, colors)
