"""Per-class quasi-isometry verdicts for the covered families, and the
mutual-embeddability criterion report.

classify_pair detects the finest covered class containing both inputs
(cliques, edgeless graphs, joins of two edgeless parts, trees, n-tree
skeletons, atomic graphs, triangle-built graphs) and applies that class's
rule; anything else is Unknown, never guessed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from . import bisim, embeddings, graphs, ntrees
from .graphs import SimplicialGraph


# One n-tree pipeline step classifies the skeletons of a complex, its double
# and a partner complex; a few steps' worth of complexes is held.
COMPLEX_CACHE_SIZE = 16


@dataclass(frozen=True)
class DromsDecomposition:
    clique_rank: int
    components: tuple           # SimplicialGraphs, canonically ordered


@dataclass(frozen=True)
class QIVerdict:
    verdict: str                # QI | NotQI | Unknown
    klass: str
    certificate: object
    explanation: str

    def to_json(self):
        cert = self.certificate
        if isinstance(cert, QIVerdict):
            cert = cert.to_json()
        elif self.klass == "ntree" and self.verdict != "Unknown":
            cert = _ntree_certificate_json(*cert)
        elif isinstance(cert, (dict, tuple)):
            cert = repr(cert)
        return {"verdict": self.verdict, "class": self.klass,
                "certificate": cert, "explanation": self.explanation}


def _ntree_certificate_json(perm, witness):
    """The p-color permutation and the bisimilarity witness of an n-tree
    verdict as JSON data, or None when the gphs are not bisimilar."""
    if witness is None:
        return None
    return {"permutation": perm,
            "quotient": json.loads(bisim.colored_to_json(witness["quotient"])),
            "map_a": witness["map_a"],
            "map_b": witness["map_b"]}


def droms_decompose(g: SimplicialGraph) -> DromsDecomposition:
    """Split off the clique of universal vertices; the rest is a disjoint
    union of strictly smaller triangle-built graphs."""
    if not graphs.is_triangle_built(g):
        raise graphs.GraphError("input is not triangle-built")
    uni = set(graphs.universal_vertices(g))
    rest = graphs.induced_subgraph(g, g.vertex_set - uni)
    comps = sorted(
        (graphs.induced_subgraph(rest, c) for c in graphs.connected_components(rest)),
        key=lambda c: c.vertices)
    return DromsDecomposition(len(uni), tuple(comps))


def maximal_cliques(g: SimplicialGraph):
    adj = graphs.adjacency(g)
    out = []

    def bron(r, p, x):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            bron(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bron(set(), set(g.vertices), set())
    return out


@lru_cache(maxsize=COMPLEX_CACHE_SIZE)
def ntree_complex_of(g: SimplicialGraph):
    """The validated n-tree whose 1-skeleton is g, or None; cached on the
    value of g."""
    if g.n < 2 or not graphs.is_connected(g):
        return None
    cliques = maximal_cliques(g)
    sizes = {len(c) for c in cliques}
    if len(sizes) != 1:
        return None
    n = sizes.pop() - 1
    if n < 1:
        return None
    k = ntrees.NTreeComplex(n, frozenset(cliques))
    ok, _ = ntrees.validate_ntree(k)
    if not ok or ntrees.skeleton(k) != g:
        return None
    return k


def classify_pair(d: SimplicialGraph, g: SimplicialGraph) -> QIVerdict:
    if d.n == 0 or g.n == 0:
        return QIVerdict("Unknown", "none", None, "empty graph")
    sd, sg = graphs.classify_shape(d), graphs.classify_shape(g)

    if sd.kind == "clique" and sg.kind == "clique":
        same = d.n == g.n
        return QIVerdict("QI" if same else "NotQI", "clique", (d.n, g.n),
                         f"free abelian of ranks {d.n} and {g.n}")

    d_free = sd.kind == "edgeless" or sd.also_edgeless
    g_free = sg.kind == "edgeless" or sg.also_edgeless
    if d_free and g_free:
        same = (d.n == 1) == (g.n == 1)
        return QIVerdict("QI" if same else "NotQI", "free", (d.n, g.n),
                         f"free of ranks {d.n} and {g.n}")

    if sd.kind == "join_of_two_edgeless" and sg.kind == "join_of_two_edgeless":
        return QIVerdict("QI", "product_of_frees", (sd.params, sg.params),
                         "products of two non-abelian free groups")

    if graphs.is_tree(d) and graphs.is_tree(g):
        dd, dg = graphs.diameter(d), graphs.diameter(g)
        bucket = lambda x: min(x, 3) if x > 1 else 1
        same = bucket(dd) == bucket(dg)
        return QIVerdict("QI" if same else "NotQI", "tree", (dd, dg),
                         f"trees of diameters {dd} and {dg}")

    kd, kg = ntree_complex_of(d), ntree_complex_of(g)
    if kd is not None and kg is not None:
        if kd.n != kg.n:
            return QIVerdict("Unknown", "ntree", (kd.n, kg.n),
                             "n-tree skeletons of different dimensions")
        ok, perm, witness = bisim.bisimilar_up_to_pcolor_permutation(
            ntrees.build_gph(kd), ntrees.build_gph(kg), kd.n)
        return QIVerdict("QI" if ok else "NotQI", "ntree", (perm, witness),
                         f"{kd.n}-tree skeletons, gph bisimilarity "
                         f"{'holds' if ok else 'fails'} up to p-color permutation")

    da, _ = graphs.is_atomic(d)
    ga, _ = graphs.is_atomic(g)
    if da and ga:
        iso = graphs.are_isomorphic(d, g)
        return QIVerdict("QI" if iso else "NotQI", "atomic", iso,
                         "atomic graphs are quasi-isometric only when isomorphic")

    if ((keyd := graphs.droms_key(d)) is not None
            and (keyg := graphs.droms_key(g)) is not None):
        same = keyd == keyg
        return QIVerdict("QI" if same else "NotQI", "triangle_built",
                         (keyd, keyg),
                         "recursive clique-rank / free-factor class comparison")

    return QIVerdict("Unknown", "none", None,
                     "inputs do not share a covered class")


# ---------------------------------------------------------------------------
# the extension-graph criterion report

def wedge_of_c5s() -> SimplicialGraph:
    """Two 5-cycles sharing a single vertex."""
    a = [f"a{i}" for i in range(1, 5)]
    b = [f"b{i}" for i in range(1, 5)]
    cyc_a = [("p", a[0])] + list(zip(a, a[1:])) + [(a[-1], "p")]
    cyc_b = [("p", b[0])] + list(zip(b, b[1:])) + [(b[-1], "p")]
    return graphs.graph(["p"] + a + b, cyc_a + cyc_b)


def _cycle(n):
    vs = [f"v{i}" for i in range(1, n + 1)]
    return graphs.graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def _is_known_jsj_pair(d, g):
    c5, wedge = _cycle(5), wedge_of_c5s()
    return ((graphs.are_isomorphic(d, c5) and graphs.are_isomorphic(g, wedge)) or
            (graphs.are_isomorphic(d, wedge) and graphs.are_isomorphic(g, c5)))


def qi_via_extension_criterion(d: SimplicialGraph, g: SimplicialGraph,
                               budget: embeddings.SearchBudget = embeddings.SearchBudget()):
    """Mutual-embeddability report with the class verdict cross-check.

    A definite class verdict that disagrees with the embedding search is
    reported as an inconsistency, never suppressed; the recorded fixture
    facts (the wedge-of-two-C5s pair, connectivity mismatches) are flagged.
    """
    verdict = classify_pair(d, g)
    fwd, bwd = embeddings.mutual_embeddability(d, g, budget)
    flags = []
    if graphs.is_connected(d) != graphs.is_connected(g):
        flags.append("connectivity mismatch: embeddings may exist while the "
                     "groups differ in one-endedness")
    if _is_known_jsj_pair(d, g):
        verdict = QIVerdict(
            "NotQI", "fixture", verdict,
            "recorded fact: mutually embeddable, yet distinguished by a "
            "nontrivial JSJ decomposition on one side")
        flags.append("known counterexample to the converse of the "
                     "embedding criterion")
    consistent = None
    if verdict.verdict == "QI":
        consistent = fwd is not None and bwd is not None
    return {
        "classify": verdict,
        "forward": fwd,
        "backward": bwd,
        "forward_found": fwd is not None,
        "backward_found": bwd is not None,
        "consistent": consistent,
        "flags": flags,
    }
