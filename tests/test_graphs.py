import functools
import itertools
import json
import math
import operator

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pcqi import embeddings, graphs, patches

from conftest import (all_trees, clique, cycle, edgeless, isomorphism_pairs, path,
                      predicate_inputs, random_graph, star)
from oracles import (are_isomorphic_reference, automorphisms_reference,
                     classify_shape_reference, complement, diameter_reference,
                     embeddings_oracle, find_induced_embeddings_reference,
                     droms_key_reference, girth_reference, is_atomic_reference,
                     is_triangle_built_reference, reach_reference)
from test_acceptance import random_tree


def test_builder_sorts_and_validates():
    g = graphs.graph(["b", "a"], [("a", "b")])
    assert g.vertices == ("a", "b")
    assert g.has_edge("b", "a")
    with pytest.raises(graphs.GraphError):
        graphs.graph(["a"], [("a", "a")])
    with pytest.raises(graphs.GraphError):
        graphs.graph(["a"], [("a", "b")])


def test_membership_matches_vertex_tuple(c5):
    for v in list(c5.vertices) + ["v0", "v6", "", "v1 "]:
        assert (v in c5) == (v in c5.vertices)
    assert c5 == cycle(5) and hash(c5) == hash(cycle(5))


def test_adjacency_is_frozen_and_outside_equality(c5):
    adj = graphs.adjacency(c5)
    assert adj is c5.adjacency and adj["v1"] == {"v2", "v5"}
    with pytest.raises(TypeError):
        adj["v1"] = frozenset()
    with pytest.raises(AttributeError):
        adj["v1"].add("v3")
    assert c5 == cycle(5) and hash(c5) == hash(cycle(5))


def test_star_link_degree(c5):
    assert graphs.star(c5, "v1") == {"v1", "v2", "v5"}
    assert graphs.link(c5, "v1") == {"v2", "v5"}
    assert graphs.degree(c5, "v3") == 2
    with pytest.raises(graphs.GraphError):
        graphs.link(c5, "nope")


def test_star_map_is_frozen_and_outside_equality(rng, c5, petersen):
    for g in (c5, petersen, graphs.graph(["a"]), random_graph(9, 0.4, rng)):
        for v in g.vertices:
            st = graphs.star(g, v)
            assert type(st) is frozenset and st == graphs.link(g, v) | {v}
            assert st is g.stars[v]
        with pytest.raises(graphs.GraphError):
            graphs.star(g, "nope")
    stars = c5.stars
    with pytest.raises(TypeError):
        stars["v1"] = frozenset()
    with pytest.raises(AttributeError):
        stars["v1"].add("v3")
    assert c5 == cycle(5) and hash(c5) == hash(cycle(5))
    assert hash(c5) == hash((c5.vertices, c5.edges))


def test_masks_are_frozen_and_outside_equality(rng, c5, petersen):
    for g in (c5, petersen, graphs.graph([]), random_graph(9, 0.4, rng)):
        fresh = graphs.SimplicialGraph(g.vertices, g.edges)
        assert g.nbrs == tuple(graphs._masks(g.vertices, g.edges))
        assert type(g.nbrs) is tuple and g.nbrs is g.nbrs
        assert "nbrs" in vars(g) and "nbrs" not in vars(fresh)
        assert g == fresh and hash(g) == hash(fresh)


def test_components_diameter_girth(c5, petersen):
    assert graphs.is_connected(c5)
    assert graphs.diameter(c5) == 2
    assert graphs.girth(c5) == 5
    assert graphs.girth(petersen) == 5
    assert graphs.diameter(petersen) == 2
    two = graphs.graph("abcd", [("a", "b"), ("c", "d")])
    assert len(graphs.connected_components(two)) == 2
    assert graphs.diameter(two) is None
    assert graphs.girth(path(5)) is None


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(map(tuple, g.edges))
    return h


def test_bfs_predicates_match_networkx(rng):
    """Components, connectivity, trees, diameter and girth agree with
    networkx."""
    for g in predicate_inputs(rng):
        h = to_networkx(g)
        comps = graphs.connected_components(g)
        assert len(set(comps)) == len(comps)
        assert set(comps) == {frozenset(c) for c in nx.connected_components(h)}
        connected = g.n > 0 and nx.is_connected(h)
        assert graphs.is_connected(g) == connected
        assert graphs.is_tree(g) == (g.n > 0 and nx.is_tree(h))
        assert graphs.diameter(g) == (nx.diameter(h) if connected else None)
        girth = nx.girth(h)
        assert graphs.girth(g) == (None if girth == math.inf else girth)


def test_masks_follow_the_given_vertex_order(rng, petersen):
    # path(4) is a-b-c-d; in the order c, a, d, b the bits are 1, 2, 4, 8
    assert graphs._masks(["c", "a", "d", "b"], path(4).edges) == [12, 8, 1, 3]
    order = list(petersen.vertices)
    rng.shuffle(order)
    masks = graphs._masks(order, petersen.edges)
    assert all(bool(masks[i] >> j & 1) == petersen.has_edge(a, b)
               for i, a in enumerate(order) for j, b in enumerate(order))


def test_girth_matches_reference(rng, c5, petersen):
    for _ in range(2000):
        g = random_graph(rng.randrange(0, 13), rng.random(), rng)
        assert graphs.girth(g) == girth_reference(g)
    for g in (c5, petersen):
        for p in patches.doubling_family(g, 3):
            plain = patches.to_simplicial(p)
            assert graphs.girth(p) == graphs.girth(plain) == girth_reference(plain)


def heawood():
    h = [f"h{k:02}" for k in range(14)]
    return graphs.graph(h, [(h[k], h[(k + 1) % 14]) for k in range(14)]
                        + [(h[k], h[(k + 5) % 14]) for k in range(0, 14, 2)])


def test_girth_explicit_cases(petersen):
    """Cases for each branch of the level search: odd and even girth, a
    shortest cycle missing the first vertex (the first root), a cycle beside
    a forest, and no cycle at all."""
    # v0 lies on a 6-cycle only; the triangle v3 v6 v7 avoids it.
    c6 = [f"v{k}" for k in range(6)]
    avoids_first = graphs.graph(
        c6 + ["v6", "v7"], list(zip(c6, c6[1:] + c6[:1]))
        + [("v3", "v6"), ("v6", "v7"), ("v7", "v3")])
    forest_and_cycle = graphs.graph(
        list("abcdefg") + ["z1", "z2", "z3", "z4", "z5"],
        [("a", "b"), ("b", "c"), ("b", "d"), ("e", "f")]
        + [(f"z{k}", f"z{k % 5 + 1}") for k in range(1, 6)])
    cases = [(avoids_first, 3), (cycle(4), 4), (cycle(6), 6), (heawood(), 6),
             (cycle(5), 5), (petersen, 5), (forest_and_cycle, 5),
             (graphs.graph([]), None), (graphs.graph(["a"]), None)]
    for g, expected in cases:
        assert girth_reference(g) == expected
        assert graphs.girth(g) == expected, g


def test_diameter_matches_reference(rng):
    """Two sweeps on trees, all pairs elsewhere: the same diameters as BFS
    from every vertex, None on empty and disconnected graphs."""
    trees = 0
    for _ in range(2000):
        n = rng.randrange(0, 13)
        if rng.random() < 0.5 and n:
            g = random_tree(n, rng)
            # shuffle names so the first vertex is not always the root
            names = [f"r{i}" for i in range(n)]
            rng.shuffle(names)
            g = graphs.graph(names, [(names[int(a[1:])], names[int(b[1:])])
                                     for a, b in map(tuple, g.edges)])
            assert graphs.is_tree(g)
            trees += 1
        else:
            g = random_graph(n, rng.random(), rng)
        assert graphs.diameter(g) == diameter_reference(g)
    assert trees > 500


def test_shape_verdicts():
    assert graphs.classify_shape(clique(4)).kind == "clique"
    v = graphs.classify_shape(clique(1))
    assert v.kind == "clique" and v.also_edgeless
    assert graphs.classify_shape(edgeless(3)).kind == "edgeless"
    assert graphs.classify_shape(path(4)) == graphs.ShapeVerdict("tree", (3,))
    assert graphs.classify_shape(star(3)).kind == "tree"
    k23 = graphs.graph("abcde", [(x, y) for x in "ab" for y in "cde"])
    assert graphs.classify_shape(k23) == graphs.ShapeVerdict(
        "join_of_two_edgeless", (2, 3))
    assert graphs.classify_shape(cycle(5)).kind == "other"


def test_triangle_built_and_chordal():
    assert graphs.is_triangle_built(clique(4))
    assert graphs.is_triangle_built(star(3))
    assert not graphs.is_triangle_built(path(4))          # induced 4-path
    assert not graphs.is_triangle_built(cycle(4))         # induced square
    diamond = graphs.graph("abcd", [("a", "b"), ("a", "c"), ("b", "c"),
                                    ("b", "d"), ("c", "d")])
    assert graphs.is_triangle_built(diamond)
    assert graphs.is_chordal(diamond)
    assert graphs.is_chordal(path(5))
    assert not graphs.is_chordal(cycle(4))
    assert not graphs.is_chordal(cycle(5))


def test_triangle_built_and_shape_match_references(rng):
    triangle_built = joins = 0
    for g in predicate_inputs(rng):
        tb = graphs.is_triangle_built(g)
        assert tb == is_triangle_built_reference(g), (g.vertices, g.edges)
        triangle_built += tb
        if g.n:
            shape = graphs.classify_shape(g)
            assert shape == classify_shape_reference(g), (g.vertices, g.edges)
            joins += shape.kind == "join_of_two_edgeless"
    assert triangle_built > 4000 and joins >= 38   # every labelled K_{m,n}, m, n >= 2


def test_droms_key_matches_the_recursion_on_induced_subgraphs(rng):
    """The peel on masks gives the class key of the recursion on induced
    subgraphs that it replaced, on every predicate input, and None exactly
    where that recursion finds a connected part with no universal vertex."""
    keys = nones = 0
    for g in predicate_inputs(rng):
        key = graphs.droms_key(g)
        assert key == droms_key_reference(g), (g.vertices, g.edges)
        keys += key is not None and len(key[2]) >= 2
        nones += key is None
    assert keys > 100 and nones > 10000


def test_atomic(c5, petersen):
    assert graphs.is_atomic(c5) == (True, None)
    assert graphs.is_atomic(petersen) == (True, None)
    ok, why = graphs.is_atomic(cycle(4))
    assert not ok and why.condition == "girth"
    ok, why = graphs.is_atomic(path(4))
    assert not ok and why.condition == "valence1"
    ok, why = graphs.is_atomic(graphs.graph("abcd", [("a", "b"), ("c", "d")]))
    assert not ok and why.condition == "disconnected"
    # two pentagons sharing one vertex: the shared vertex's star separates
    from pcqi.classify import wedge_of_c5s
    ok, why = graphs.is_atomic(wedge_of_c5s())
    assert not ok and why.condition == "separating_star"


def _subdivided(h, rng):
    """h with each edge subdivided once or twice, at random: girth at least
    six, and every vertex of h keeps its degree."""
    edges = []
    for k, (a, b) in enumerate(sorted(map(sorted, h.edges))):
        inner = [f"s{k}_{i}" for i in range(rng.randint(1, 2))]
        chain = [a] + inner + [b]
        edges += list(zip(chain, chain[1:]))
    return graphs.graph({v for e in edges for v in e}, edges)


def test_is_atomic_matches_reference(rng, c5, petersen, wedge):
    """The mask test of the closed stars gives the verdict and the first
    violation of the induced-subgraph test: on the fixtures, on random
    graphs, and on subdivisions of random graphs of minimum degree two,
    which pass the degree and girth tests and so reach the stars."""
    fixtures = [c5, petersen, wedge, cycle(4), path(4), star(3), clique(1),
                graphs.graph("abcd", [("a", "b"), ("c", "d")])]
    fixtures += [cycle(n) for n in range(5, 10)]
    randoms = [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(500)]
    subdivisions = []
    while len(subdivisions) < 300:
        h = random_graph(rng.randint(3, 8), rng.uniform(0.3, 0.9), rng)
        if graphs.is_connected(h) and all(graphs.degree(h, v) >= 2 for v in h.vertices):
            subdivisions.append(_subdivided(h, rng))
    seen = set()
    for g in fixtures + randoms + subdivisions:
        got = graphs.is_atomic(g)
        assert got == is_atomic_reference(g), (g.vertices, g.edges)
        seen.add(got[1].condition if got[1] else "atomic")
    assert seen == {"atomic", "disconnected", "valence1", "girth", "separating_star"}


def test_embedding_search_matches_oracle(rng):
    for _ in range(25):
        dom = random_graph(rng.randrange(1, 4), rng.random(), rng, "d")
        cod = random_graph(rng.randrange(1, 6), rng.random(), rng, "c")
        got = sorted(e.as_dict().items() for e in
                     graphs.find_induced_embeddings(dom, cod))
        want = sorted(m.items() for m in embeddings_oracle(dom, cod))
        assert got == want


def test_embedding_search_matches_reference_in_order(rng):
    for _ in range(3000):
        dom = random_graph(rng.randrange(0, 7), rng.random(), rng, "d")
        cod = random_graph(rng.randrange(0, 10), rng.random(), rng, "c")
        for limit in (None, 1, 3):
            assert (graphs.find_induced_embeddings(dom, cod, limit)
                    == find_induced_embeddings_reference(dom, cod, limit))


def test_embedding_search_matches_reference_on_patches(path4):
    budget = patches.vertex_budget()
    trees = [t for n in range(1, 8) for t in all_trees(n)]
    for level in range(3):
        for p in embeddings._doubling_level(path4, level, budget):
            plain = patches.to_simplicial(p)
            for t in trees:
                assert (graphs.find_induced_embeddings(t, plain, limit=1)
                        == find_induced_embeddings_reference(t, plain, limit=1))
    for g in (cycle(5), cycle(6)):
        for p in patches.doubling_family(g, 1):
            plain = patches.to_simplicial(p)
            assert (graphs.find_induced_embeddings(g, plain)
                    == find_induced_embeddings_reference(g, plain))


def test_degree_count_rule_fires_only_where_there_is_no_embedding(rng):
    """`_can_hold` refuses a codomain only when the brute-force oracle finds
    no embedding into it, and the search then returns none.  The domain's
    (d, count) pairs and the codomain's counts are those of the named
    graphs, and the rule fires on a good share of small random pairs."""
    fired = 0
    for _ in range(600):
        dom = random_graph(rng.randrange(1, 5), rng.random(), rng, "d")
        cod = random_graph(rng.randrange(0, 7), rng.random(), rng, "c")
        plan = graphs._domain_plan(dom)
        degs = [graphs.degree(dom, v) for v in dom.vertices]
        assert plan.counts == [(d, sum(e >= d for e in degs))
                               for d in sorted(set(degs), reverse=True)]
        nbrs = graphs._masks(cod.vertices, cod.edges)
        counts = [m.bit_count() for m in graphs._fits(nbrs)]
        degs = [graphs.degree(cod, v) for v in cod.vertices]
        assert counts == [sum(e >= d for e in degs) for d in range(max(degs, default=0) + 1)]
        if not graphs._can_hold(plan, counts):
            fired += 1
            assert embeddings_oracle(dom, cod) == []
            assert graphs._embedding_search(plan, nbrs) == []
    assert fired >= 100


def _symmetry_broken_cases(rng, petersen):
    for _ in range(300):
        yield (random_graph(rng.randrange(1, 6), rng.random(), rng, "d"),
               random_graph(rng.randrange(0, 9), rng.random(), rng, "c"))
    for g in (cycle(5), cycle(6), petersen):
        for p in patches.doubling_family(g, 1):
            yield g, patches.to_simplicial(p)


def test_symmetry_broken_search_finds_one_copy_per_image_set(rng, petersen):
    """Under the symmetry-breaking conditions of Aut(dom) the search yields
    each image set of the reference enumeration once, and expanding each
    copy m to m ∘ tau for tau in Aut(dom), sorted on the codomain indices
    in search order, gives the reference enumeration in order."""
    for dom, cod in _symmetry_broken_cases(rng, petersen):
        auts = graphs.automorphisms(dom)
        conditions = graphs._symmetry_conditions(dom, auts)
        plan = graphs._domain_plan(dom, conditions)
        order, copies = plan.order, graphs._embedding_search(
            plan, graphs._masks(cod.vertices, cod.edges))
        want = find_induced_embeddings_reference(dom, cod)
        sets = [frozenset(cod.vertices[k] for k in copy) for copy in copies]
        assert len(set(sets)) == len(sets)
        assert set(sets) == {frozenset(e.as_dict().values()) for e in want}
        expanded = sorted(tuple(m[tau[u]] for u in order)
                          for m in (dict(zip(order, copy)) for copy in copies)
                          for tau in auts)
        assert [graphs.GraphEmbedding(dom, cod, tuple(sorted(
                    zip(order, (cod.vertices[k] for k in key)))))
                for key in expanded] == want


def test_symmetry_conditions_of_the_trivial_group_are_empty(c5):
    identity = {v: v for v in c5.vertices}
    assert graphs._symmetry_conditions(c5, [identity]) == []
    # the smallest asymmetric graphs have six vertices
    asym = graphs.graph("abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                                   ("b", "f"), ("c", "f")])
    auts = graphs.automorphisms(asym)
    assert auts == [{v: v for v in asym.vertices}]
    assert graphs._symmetry_conditions(asym, auts) == []
    # vertex-transitive C5: v1 first below the other four, then the
    # reflection fixing v1 swaps v2 with v5 and v3 with v4
    assert graphs._symmetry_conditions(c5, graphs.automorphisms(c5)) == [
        ("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v1", "v5"), ("v2", "v5")]


def test_automorphism_counts(c5, petersen):
    assert len(graphs.automorphisms(c5)) == 10
    assert len(graphs.automorphisms(petersen)) == 120
    assert len(graphs.find_induced_embeddings(cycle(5, "w"), petersen)) == 120


def test_isomorphism(c5):
    assert graphs.are_isomorphic(c5, cycle(5, "w")) is not None
    assert graphs.are_isomorphic(c5, cycle(6)) is None
    assert graphs.are_isomorphic(path(4), star(3)) is None


def test_isomorphisms_match_references(rng):
    """`are_isomorphic` and `automorphisms`, each one call of the seeded
    `_isomorphisms`, give the results of their old code on 2,000 random
    pairs: the same first witness, keyed in the same order, and the same
    automorphisms in the same order.  `_isomorphisms` lists every induced
    embedding between graphs of one size, in the plain search's order, and
    stops at `limit`."""
    found = empty = disconnected = 0
    for g, h, _, _ in isomorphism_pairs(rng, 2000):
        want, got = are_isomorphic_reference(g, h), graphs.are_isomorphic(g, h)
        assert got == want and (got is None or list(got) == list(want))
        auts, want_auts = graphs.automorphisms(g), automorphisms_reference(g)
        assert auts == want_auts and list(map(list, auts)) == list(map(list, want_auts))
        every = ([e.as_dict() for e in graphs.find_induced_embeddings(g, h)]
                 if g.n == h.n else [])
        assert graphs._isomorphisms(g, h) == every
        limit = rng.randrange(3)
        assert graphs._isomorphisms(g, h, limit=limit) == every[:limit]
        found += want is not None
        empty += g.n == h.n == 0
        disconnected += g.n > 1 and not graphs.is_connected(g)
    assert found >= 400 and empty >= 20 and disconnected >= 400


def test_levels_and_reach_match_reference(rng):
    """`_levels` yields `start` and then each breadth-first level inside
    `within`, disjoint and nonempty, and the union of its first s + 1
    levels, like `_reach` with steps=s, is what the old bounded search
    reached; `_reach` with negative steps reaches all of them."""
    for _ in range(2000):
        n = rng.randrange(12)
        g = random_graph(n, rng.random() / 2, rng)
        nbrs = graphs._masks(g.vertices, g.edges)
        start = rng.choice((rng.getrandbits(n), 1 << rng.randrange(n) if n else 0))
        within = rng.choice((-1, rng.getrandbits(n)))
        levels = list(graphs._levels(nbrs, start, within))
        assert all(levels) and levels[:1] == ([start] if start else [])
        union = functools.reduce(operator.or_, levels, 0)
        assert sum(m.bit_count() for m in levels) == union.bit_count()
        assert graphs._reach(nbrs, start, within) == union == reach_reference(
            nbrs, start, within)
        for steps in range(len(levels) + 2):
            want = reach_reference(nbrs, start, within, steps)
            assert graphs._reach(nbrs, start, within, steps) == want
            assert functools.reduce(operator.or_, levels[:steps + 1], 0) == want


def test_tree_count_fixture():
    # unlabelled trees on 1..8 vertices: 1,1,1,2,3,6,11,23
    assert [len(all_trees(n)) for n in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.data())
def test_induced_subgraph_properties(n, data):
    g = clique(n)
    keep = data.draw(st.sets(st.sampled_from(g.vertices), min_size=1))
    sub = graphs.induced_subgraph(g, keep)
    assert graphs.classify_shape(sub).kind == "clique"
    comp = complement(sub)
    assert not comp.edges


def test_serialization_roundtrip(petersen):
    assert graphs.from_json(graphs.to_json(petersen)) == petersen
    data = json.loads(graphs.to_json(petersen))
    assert data["vertices"] == sorted(data["vertices"])


def test_dot_parsing(tmp_path):
    text = 'graph g {\n  a -- b -- c;\n  d;\n}'
    g = graphs.from_dot(text)
    assert g.vertices == ("a", "b", "c", "d")
    assert g.has_edge("a", "b") and g.has_edge("b", "c")
    assert not g.has_edge("a", "c")
    p = tmp_path / "g.dot"
    p.write_text(text)
    assert graphs.load_graph(p) == g
    q = tmp_path / "g.json"
    q.write_text(graphs.to_json(g))
    assert graphs.load_graph(q) == g


def test_dot_names_round_trip():
    """`to_dot` quotes every name, escaping `\\` and `"`, and `from_dot`
    reads the escapes back; any other backslash is literal."""
    assert graphs.to_dot(path(3)) == (
        'graph G {\n  "a";\n  "b";\n  "c";\n  "a" -- "b";\n  "b" -- "c";\n}')
    names = ['a"b', "c\\d", "e f", "g--h", "i;j", "{k}", "l}", "\\", '"', 'm\\"n', "o\\n"]
    g = graphs.graph(names, zip(names, names[1:]))
    text = graphs.to_dot(g)
    assert '"a\\"b"' in text and '"c\\\\d"' in text
    assert graphs.from_dot(text) == g
    assert graphs.from_dot('graph { "x\\ny" -- "\\\\" }').vertices == ("\\", "x\\ny")
