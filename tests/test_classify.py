import itertools

import pytest

from pcqi import classify, embeddings, graphs, ntrees

from conftest import clique, cycle, edgeless, path, predicate_inputs, star
from oracles import droms_key_reference, is_triangle_built_reference


def join(g1, g2):
    vs = list(g1.vertices) + list(g2.vertices)
    es = [tuple(e) for e in g1.edges] + [tuple(e) for e in g2.edges]
    es += [(a, b) for a in g1.vertices for b in g2.vertices]
    return graphs.graph(vs, es)


def relabel(g, prefix):
    m = {v: prefix + v for v in g.vertices}
    return graphs.graph(m.values(), [(m[a], m[b]) for e in g.edges for a, b in [tuple(e)]])


def disjoint(g1, g2):
    a, b = relabel(g1, "L"), relabel(g2, "R")
    return graphs.graph(list(a.vertices) + list(b.vertices),
                        [tuple(e) for e in a.edges] + [tuple(e) for e in b.edges])


def ee(m, n):
    """Join of edgeless parts of sizes m and n."""
    return join(relabel(edgeless(m), "x"), relabel(edgeless(n), "y"))


DIAMOND = graphs.graph("abcd", [("a", "b"), ("a", "c"), ("b", "c"),
                                ("b", "d"), ("c", "d")])
CHAIN3 = graphs.graph("abcde", [("a", "b"), ("a", "c"), ("b", "c"),
                                ("b", "d"), ("c", "d"), ("c", "e"), ("d", "e")])


def test_universal_vertices_and_droms():
    d = classify.droms_decompose(clique(3))
    assert d.clique_rank == 3 and d.components == ()

    d = classify.droms_decompose(star(3))
    assert d.clique_rank == 1 and [c.n for c in d.components] == [1, 1, 1]

    two_edges = disjoint(path(2), path(2))
    d = classify.droms_decompose(two_edges)
    assert d.clique_rank == 0 and [c.n for c in d.components] == [2, 2]

    with pytest.raises(graphs.GraphError):
        classify.droms_decompose(cycle(5))


def test_droms_and_classify_pair_match_reference_scan(rng, monkeypatch):
    """The triangle-built verdicts are those given with the old 4-subset
    scan and the old class key on induced subgraphs, on the triangle-built
    predicate inputs paired off in order."""
    tb = [g for g in predicate_inputs(rng) if is_triangle_built_reference(g)]
    pairs = list(zip(tb[0::2], tb[1::2]))

    def outcomes():
        return ([classify.droms_decompose(g) for g in tb],
                [classify.classify_pair(d, g) for d, g in pairs])

    new = outcomes()
    monkeypatch.setattr(graphs, "is_triangle_built", is_triangle_built_reference)
    monkeypatch.setattr(graphs, "droms_key", droms_key_reference)
    assert outcomes() == new
    assert sum(v.klass == "triangle_built" for v in new[1]) > 2000


def test_triangle_built_class_key_checks_each_root_once(monkeypatch):
    """classify_pair peels each triangle-built input once, at the root;
    the peel recurses into the components without another call."""
    a = join(relabel(clique(1), "u"), disjoint(star(3), DIAMOND))
    b = disjoint(a, clique(3))
    c = join(relabel(clique(2), "w"), disjoint(a, path(2)))
    calls = []
    genuine = graphs.droms_key
    monkeypatch.setattr(graphs, "droms_key", lambda g: calls.append(g) or genuine(g))
    for d, g in ((a, b), (b, c), (c, a), (c, c)):
        calls.clear()
        verdict = classify.classify_pair(d, g)
        assert verdict.klass == "triangle_built"
        assert calls == [d, g]
        assert all(key[2] for key in verdict.certificate)     # the recursion ran


def test_ntree_with_comma_names_is_qi_to_a_relabelled_copy():
    simplices = [["a,b", "c", "x"], ["a,b", "c", "y"], ["c", "x", "a"],
                 ["x", "a", "b,c"], ["a", "b,c", "z"], ["a", "b,c", "w"]]
    names = sorted({v for s in simplices for v in s})
    plain = {v: f"u{i}" for i, v in enumerate(names)}
    k = ntrees.complex_(2, simplices)
    copy = ntrees.complex_(2, [[plain[v] for v in s] for s in simplices])
    v = classify.classify_pair(ntrees.skeleton(k), ntrees.skeleton(copy))
    assert (v.verdict, v.klass) == ("QI", "ntree")


def test_maximal_cliques():
    assert sorted(map(sorted, classify.maximal_cliques(DIAMOND))) == \
        [["a", "b", "c"], ["b", "c", "d"]]
    assert len(classify.maximal_cliques(cycle(5))) == 5
    k4 = clique(4)
    assert classify.maximal_cliques(k4) == [frozenset(k4.vertices)]


def test_ntree_complex_of():
    k = classify.ntree_complex_of(DIAMOND)
    assert k is not None and k.n == 2
    assert classify.ntree_complex_of(path(4)).n == 1
    assert classify.ntree_complex_of(cycle(4)) is None
    assert classify.ntree_complex_of(cycle(5)) is None
    assert classify.ntree_complex_of(clique(2)).n == 1    # a single edge


# Fixture table: (domain, codomain, verdict, class).
TABLE = [
    (clique(2), clique(2), "QI", "clique"),
    (clique(3), clique(5), "NotQI", "clique"),
    (edgeless(2), edgeless(7), "QI", "free"),
    (edgeless(1), edgeless(3), "NotQI", "free"),
    (edgeless(1), edgeless(1), "QI", "clique"),   # two copies of Z
    (ee(2, 3), ee(4, 2), "QI", "product_of_frees"),
    (path(3), star(5), "QI", "tree"),
    (path(4), path(7), "QI", "tree"),
    (path(3), path(4), "NotQI", "tree"),
    (clique(2), path(3), "NotQI", "tree"),
    (path(4), graphs.graph("abcdef", [("a", "b"), ("b", "c"), ("c", "d"),
                                      ("c", "e"), ("e", "f")]), "QI", "tree"),
    (DIAMOND, DIAMOND, "QI", "ntree"),
    (DIAMOND, CHAIN3, "NotQI", "ntree"),
    (cycle(5), cycle(5), "QI", "atomic"),
    (cycle(5), cycle(6), "NotQI", "atomic"),
    # the wedge has a cut vertex, so it is not atomic; the pair is only
    # settled by the fixture override in qi_via_extension_criterion
    (cycle(5), classify.wedge_of_c5s(), "Unknown", "none"),
    (join(clique(1), disjoint(path(2), path(2))),
     join(clique(1), disjoint(path(3), path(2))), "NotQI", "triangle_built"),
    (disjoint(path(2), path(2)), disjoint(path(2), disjoint(path(2), path(2))),
     "QI", "triangle_built"),
    # a clique joined onto edgeless vertices is a fan of triangles: a 2-tree
    (join(clique(2), edgeless(2)), join(clique(2), edgeless(3)), "QI", "ntree"),
    (cycle(6), path(4), "Unknown", "none"),
    (cycle(4), cycle(5), "Unknown", "none"),
]


def test_classify_pair_table():
    for d, g, verdict, klass in TABLE:
        got = classify.classify_pair(d, g)
        assert (got.verdict, got.klass) == (verdict, klass), (sorted(d.vertices),
                                                              sorted(g.vertices))


def test_classify_pair_symmetric():
    for d, g, _, _ in TABLE:
        a, b = classify.classify_pair(d, g), classify.classify_pair(g, d)
        assert a.verdict == b.verdict and a.klass == b.klass


def test_classify_is_reflexively_qi():
    for g in [clique(3), edgeless(4), ee(2, 2), path(5), DIAMOND,
              cycle(5), star(4)]:
        got = classify.classify_pair(g, g)
        assert got.verdict == "QI"


def test_tree_route_consistent_with_ntree_route():
    """Trees of diameter >= 3 are also valid 1-tree skeletons; the gph
    comparison must agree with the diameter buckets on tree pairs."""
    fixtures = [path(4), path(6), star(3),
                graphs.graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("c", "e")])]
    for d, g in itertools.combinations(fixtures, 2):
        via_tree = classify.classify_pair(d, g)
        assert via_tree.klass == "tree"
        kd = classify.ntree_complex_of(d)
        kg = classify.ntree_complex_of(g)
        if kd is None or kg is None:
            continue
        from pcqi import bisim, ntrees
        ok, _, _ = bisim.bisimilar_up_to_pcolor_permutation(
            ntrees.build_gph(kd), ntrees.build_gph(kg), 1)
        if graphs.diameter(d) >= 3 and graphs.diameter(g) >= 3:
            assert ok == (via_tree.verdict == "QI")


def test_verdict_json():
    j = classify.classify_pair(clique(2), clique(3)).to_json()
    assert j["verdict"] == "NotQI" and j["class"] == "clique"
    assert isinstance(j["explanation"], str)


def test_wedge_fixture():
    w = classify.wedge_of_c5s()
    assert w.n == 9 and len(w.edges) == 10 and graphs.girth(w) == 5


def test_extension_criterion_report(c5, wedge):
    rep = classify.qi_via_extension_criterion(
        c5, wedge, embeddings.SearchBudget(max_depth=4))
    assert rep["forward_found"] and rep["backward_found"]
    assert rep["classify"].verdict == "NotQI"
    assert rep["classify"].klass == "fixture"
    assert any("counterexample" in f for f in rep["flags"])

    rep2 = classify.qi_via_extension_criterion(
        path(3), path(3), embeddings.SearchBudget(max_depth=1))
    assert rep2["classify"].verdict == "QI"
    assert rep2["consistent"] is True
    assert rep2["flags"] == []

    rep3 = classify.qi_via_extension_criterion(
        edgeless(2), path(2), embeddings.SearchBudget(max_depth=1))
    assert any("connectivity" in f for f in rep3["flags"])
