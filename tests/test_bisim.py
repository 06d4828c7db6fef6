import itertools
import random

import pytest

from pcqi import bisim, graphs, ntrees

from conftest import isomorphism_pairs, random_graph
from oracles import (_quotients_oracle, bisimilar_oracle, bisimilar_reference,
                     bisimilar_up_to_pcolor_permutation_reference,
                     colored_isomorphic_reference, generate_ntrees, joined_name_reference)
from test_acceptance import random_tree


def CG(vertices, edges, colors):
    return bisim.colored_graph(graphs.graph(vertices, edges), colors)


PFP = CG("xyz", [("x", "y"), ("y", "z")], {"x": "p1", "y": "f", "z": "p2"})
PFPFP = CG(["x1", "x2", "x3", "x4", "x5"],
           [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")],
           {"x1": "p2", "x2": "f", "x3": "p1", "x4": "f", "x5": "p2"})
SINGLE = CG(["p"], [], {"p": "p1"})


def test_colored_graph_validation():
    with pytest.raises(bisim.BisimError):
        CG("ab", [("a", "b")], {"a": "p1"})


def test_colors_are_frozen():
    assert PFP.color("y") == "f" and PFP.colors["x"] == "p1"
    with pytest.raises(TypeError):
        PFP.colors["x"] = "p2"
    assert PFP == CG("xyz", [("x", "y"), ("y", "z")],
                     {"x": "p1", "y": "f", "z": "p2"})


def test_weak_covering_identity_and_violations():
    ident = {v: v for v in PFP.graph.vertices}
    assert bisim.check_weak_covering(ident, PFP, PFP) == (True, None)

    ok, why = bisim.check_weak_covering({v: "p" for v in PFP.graph.vertices},
                                        PFP, SINGLE)
    assert not ok and "color" in why

    # the fold of the 5-chain onto the 3-chain is a weak covering
    fold = {"x1": "z", "x2": "y", "x3": "x", "x4": "y", "x5": "z"}
    assert bisim.check_weak_covering(fold, PFPFP, PFP) == (True, None)

    # injecting PFP into the end of PFPFP preserves colors and edges but
    # fails edge lifting at the inner p-vertex
    inj = {"x": "x3", "y": "x4", "z": "x5"}
    ok, why = bisim.check_weak_covering(inj, PFP, PFPFP)
    assert not ok and "lift" in why

    partial = {"x": "x3"}
    ok, why = bisim.check_weak_covering(partial, PFP, PFPFP)
    assert not ok and "total" in why


def test_weak_coverings_compose():
    d, fold = ntrees.double_ntree(ntrees.complex_(1, ["ab", "bc", "cd"]), "a")
    up = ntrees.build_gph(d)
    down = ntrees.build_gph(ntrees.complex_(1, ["ab", "bc", "cd"]))
    f = ntrees.induced_gph_map(d, ntrees.complex_(1, ["ab", "bc", "cd"]), fold)
    assert bisim.check_weak_covering(f, up, down) == (True, None)
    q, qmap = bisim.minimal_quotient(down)
    comp = {v: qmap[f[v]] for v in up.graph.vertices}
    assert bisim.check_weak_covering(comp, up, q) == (True, None)


def test_minimal_quotient_fixtures():
    q, _ = bisim.minimal_quotient(PFP)
    assert q.graph.n == 3

    q, qmap = bisim.minimal_quotient(PFPFP)
    assert q.graph.n == 3
    assert sorted(q.colors.values()) == ["f", "p1", "p2"]
    assert qmap["x1"] == qmap["x5"] and qmap["x2"] == qmap["x4"]
    ok, _ = bisim.check_weak_covering(qmap, PFPFP, q)
    assert ok

    q1, _ = bisim.minimal_quotient(SINGLE)
    assert q1.graph.n == 1

    # idempotent
    qq, _ = bisim.minimal_quotient(q)
    assert bisim.colored_isomorphic(qq, q) is not None


def test_stable_partition_numbers_classes_in_vertex_order():
    for cg in (PFP, PFPFP, SINGLE):
        ids = [bisim._stable_partition(cg)[v] for v in cg.graph.vertices]
        assert list(dict.fromkeys(ids)) == list(range(len(set(ids))))


def test_minimal_quotient_rejects_monochrome_edges():
    mono = CG("ab", [("a", "b")], {"a": "c1", "b": "c1"})
    with pytest.raises(bisim.BisimError):
        bisim.minimal_quotient(mono)


def test_bisimilar_fixtures():
    assert bisim.bisimilar(PFP, PFP)[0]
    ok, witness = bisim.bisimilar(PFPFP, PFP)
    assert ok
    assert witness["quotient"].graph.n == 3
    ok, _ = bisim.check_weak_covering(witness["map_a"], PFPFP,
                                      witness["quotient"])
    assert ok
    assert not bisim.bisimilar(SINGLE, PFP)[0]


def test_bisimilar_monochrome_fallback():
    def cyc(n):
        vs = [f"c{i}" for i in range(n)]
        return CG(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)],
                  {v: "a" for v in vs})
    k2 = CG("uv", [("u", "v")], {"u": "a", "v": "a"})
    assert bisim.bisimilar(cyc(6), cyc(3))[0]
    assert bisim.bisimilar(cyc(6), k2)[0]
    assert not bisim.bisimilar(cyc(3), k2)[0]    # Definition is not transitive


def test_bisimilar_matches_exhaustive_oracle(rng):
    palette = ["p1", "p2", "f"]
    cases = equal = 0
    while cases < 120:
        g1 = random_graph(rng.randrange(1, 6), rng.random(), rng, "a")
        g2 = random_graph(rng.randrange(1, 6), rng.random(), rng, "b")
        if not (graphs.is_connected(g1) and graphs.is_connected(g2)):
            continue
        c1 = CG(g1.vertices, [tuple(e) for e in g1.edges],
                {v: rng.choice(palette) for v in g1.vertices})
        c2 = CG(g2.vertices, [tuple(e) for e in g2.edges],
                {v: rng.choice(palette) for v in g2.vertices})
        got = bisim.bisimilar(c1, c2)[0]
        assert got == bisimilar_oracle(c1, c2)
        cases += 1
        equal += got
    assert 0 < equal < cases


def _random_colored(rng, n, palette, prefix, proper):
    """A random graph on n vertices, colored from `palette`; properly
    colored, or with at least one monochrome edge; None if no such
    coloring was drawn."""
    g = random_graph(n, rng.random(), rng, prefix)
    colors = {}
    for v in g.vertices:
        free = [c for c in palette
                if not proper or all(colors.get(u) != c for u in graphs.link(g, v))]
        if not free:
            return None
        colors[v] = rng.choice(free)
    cg = bisim.colored_graph(g, colors)
    return cg if bisim.properly_colored(cg) == proper else None


def test_bisimilar_matches_reference(rng):
    """The shared procedure gives the old `bisimilar`'s (ok, witness) on
    properly colored pairs, monochrome pairs of up to 6 vertices, and
    n-tree gphs against random partners and doubles."""
    pairs = []
    for proper, sizes, palette, count in (
            (True, (1, 9), ["p1", "p2", "p3", "f"], 300),
            (False, (2, 6), ["p1"], 75), (False, (2, 6), ["p1", "f"], 75)):
        drawn = 0
        while drawn < count:
            a = _random_colored(rng, rng.randint(*sizes), palette, "a", proper)
            b = _random_colored(rng, rng.randint(*sizes), palette, "b", proper)
            if a is not None and b is not None:
                pairs.append((a, b))
                drawn += 1
    for n in (1, 2, 3):
        ks = generate_ntrees(n, 6, rng, 20)
        for i, k in enumerate(ks):
            d, _ = ntrees.double_ntree(k, rng.choice(sorted(k.vertices)))
            for other in (ks[(i + 1) % len(ks)], d):
                pairs.append((ntrees.build_gph(k), ntrees.build_gph(other)))
    outcomes = set()
    for a, b in pairs:
        got = bisim.bisimilar(a, b)
        assert got == bisimilar_reference(a, b)
        outcomes.add((bisim.properly_colored(a), got[0]))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("x,z,joined", [("x", "z", "x|z"), ("a\\", "b", "a|b")])
def test_quotient_names_escape_separator(x, z, joined):
    """A class {x, z} and a vertex named like their plain join get distinct
    quotient names, in the minimal quotient and in every fallback
    quotient."""
    def g(cx, cj, cm):
        return CG([x, z, joined, "m"], [(x, "m"), (z, "m"), ("m", joined)],
                  {x: cx, z: cx, joined: cj, "m": cm})

    proper = g("p1", "p2", "f")
    q, qmap = bisim.minimal_quotient(proper)
    assert q.graph.n == 3 and qmap[x] == qmap[z] != qmap[joined]
    ok, witness = bisim.bisimilar(proper, proper)
    assert ok and witness["quotient"] == q
    mono = g("a", "b", "b")
    assert len(bisim.all_quotients(mono)) == len(_quotients_oracle(mono))


def test_joined_name_matches_reference(rng):
    """The plain-join fast path gives the escaped name on every set, among
    them sets whose members hold `,`, `|` or `\\`, and the empty set."""
    fixed = [set(), {""}, {"", "a"}, {"a,b"}, {"a", "b"}, {"a|b", "c"},
             {"a\\", "b"}, {"\\,", ","}, {"|", "||"}, {"a,", ",b"}]
    drawn = [{"".join(rng.choice("ab,|\\") for _ in range(rng.randrange(4)))
              for _ in range(rng.randrange(5))} for _ in range(2000)]
    for members in fixed + drawn:
        for sep in (",", "|"):
            assert bisim.joined_name(members, sep) == joined_name_reference(members, sep), (
                members, sep)


def test_minimal_quotient_is_cached_and_read_only():
    """An equal colored graph built separately gets the cached result, and
    its vertex map cannot be changed through it."""
    q, qmap = bisim.minimal_quotient(PFPFP)
    again = CG(list(PFPFP.graph.vertices), [tuple(e) for e in PFPFP.graph.edges],
               dict(PFPFP.color_items))
    assert again == PFPFP and again is not PFPFP
    assert bisim.minimal_quotient(again)[1] is qmap
    with pytest.raises(TypeError):
        qmap["x1"] = qmap["x3"]
    assert qmap["x1"] == qmap["x5"] != qmap["x3"]


def test_pcolor_permutation():
    swapped = CG("xyz", [("x", "y"), ("y", "z")],
                 {"x": "p2", "y": "f", "z": "p1"})
    ok, perm, witness = bisim.bisimilar_up_to_pcolor_permutation(PFP, swapped, 1)
    assert ok and perm in ({"p1": "p1", "p2": "p2"}, {"p1": "p2", "p2": "p1"})
    ok, _, _ = bisim.bisimilar_up_to_pcolor_permutation(SINGLE, PFP, 1)
    assert not ok
    with pytest.raises(bisim.BisimError):
        bisim.bisimilar_up_to_pcolor_permutation(
            CG("a", [], {"a": "q9"}), SINGLE, 1)


def test_pcolor_permutation_matches_reference_on_ntrees(rng):
    """Quotients once per side give the per-permutation loop's
    (ok, permutation, witness) on n-tree gphs, n = 1-3, against random
    partners and against doubles."""
    outcomes = set()
    for n in (1, 2, 3):
        ks = generate_ntrees(n, 6, rng, 30)
        for i, k in enumerate(ks):
            v = rng.choice(sorted(k.vertices))
            d, _ = ntrees.double_ntree(k, v)
            for other in (ks[(i + 1) % len(ks)], d):
                a, b = ntrees.build_gph(k), ntrees.build_gph(other)
                got = bisim.bisimilar_up_to_pcolor_permutation(a, b, n)
                assert got == bisimilar_up_to_pcolor_permutation_reference(a, b, n)
                outcomes.add((n, got[0], got[1] is not None and
                              got[1] != {c: c for c in got[1]}))
    for n in (1, 2, 3):
        assert (n, True, True) in outcomes and (n, False, False) in outcomes


def test_pcolor_permutation_matches_reference_on_criterion_8_trees():
    """The tree pairs of acceptance criterion 8, drawn the same way."""
    def gph(t):
        return ntrees.build_gph(ntrees.complex_(1, [tuple(e) for e in t.edges]))

    rng = random.Random(108)
    pairs = []
    while len(pairs) < 50:
        t1 = random_tree(rng.randrange(4, 11), rng, "a")
        t2 = random_tree(rng.randrange(4, 11), rng, "b")
        if graphs.diameter(t1) >= 3 and graphs.diameter(t2) >= 3:
            pairs.append((t1, t2))
    for k in (2, 3, 5):
        star_k = graphs.graph(["c"] + [f"l{i}" for i in range(k)],
                              [("c", f"l{i}") for i in range(k)])
        deep = random_tree(8, rng, "d")
        while graphs.diameter(deep) < 3:
            deep = random_tree(8, rng, "d")
        pairs.append((star_k, deep))
    for t1, t2 in pairs:
        a, b = gph(t1), gph(t2)
        assert (bisim.bisimilar_up_to_pcolor_permutation(a, b, 1)
                == bisimilar_up_to_pcolor_permutation_reference(a, b, 1))


def test_pcolor_permutation_monochrome_edges_match_reference(rng):
    """Fixed pairs, then random graphs with a monochrome edge against a
    relabelled copy with permuted p-colors, which mostly succeed only on a
    non-identity permutation."""
    mono = CG("ab", [("a", "b")], {"a": "p1", "b": "p1"})
    pairs = [((mono, mono), 1), ((mono, PFP), 1), ((PFP, mono), 1)]
    while len(pairs) < 103:
        n = rng.choice((1, 2))
        palette = [f"p{i}" for i in range(1, n + 2)] + ["f"]
        a = _random_colored(rng, rng.randint(2, 6), palette, "a", False)
        if a is None:
            continue
        pi = dict(zip(palette, rng.choice(
            list(itertools.permutations(palette[:-1]))[1:])))
        names = [f"b{i}" for i in range(a.graph.n)]
        rng.shuffle(names)
        rename = dict(zip(a.graph.vertices, names))
        b = CG(names, [(rename[x], rename[y]) for x, y in map(tuple, a.graph.edges)],
               {rename[v]: pi.get(c, c) for v, c in a.colors.items()})
        pairs.append(((a, b), n))
    non_identity = 0
    for (a, b), n in pairs:
        got = bisim.bisimilar_up_to_pcolor_permutation(a, b, n)
        assert got == bisimilar_up_to_pcolor_permutation_reference(a, b, n)
        non_identity += got[0] and got[1] != {c: c for c in got[1]}
    assert non_identity >= 80


def test_minimal_quotient_commutes_with_recoloring(rng):
    """For a bijective color renaming pi, the minimal quotient of the
    recolored graph is the recolored minimal quotient, with the same map."""
    checked = 0
    while checked < 300:
        g = random_graph(rng.randrange(1, 10), rng.random(), rng)
        palette = [f"p{i}" for i in range(1, rng.randrange(2, 5))] + ["f"]
        colors = {}
        for v in g.vertices:
            free = [c for c in palette
                    if all(colors.get(u) != c for u in graphs.link(g, v))]
            if not free:
                break
            colors[v] = rng.choice(free)
        else:
            cg = bisim.colored_graph(g, colors)
            q, qmap = bisim.minimal_quotient(cg)
            images = palette[:]
            rng.shuffle(images)
            pi = dict(zip(palette, images))
            assert bisim.minimal_quotient(bisim.recolor(cg, pi)) == (
                bisim.recolor(q, pi), qmap)
            checked += 1


def test_colored_isomorphic_matches_reference(rng):
    """`colored_isomorphic`, one call of the seeded `graphs._isomorphisms`,
    gives the result of its old enumerate-then-filter code on 2,000 random
    coloured pairs, the witness keyed in the same order; `_isomorphisms`
    lists the colour-keeping embeddings between graphs of one size, in the
    plain search's order."""
    found = differ = 0
    for g, h, cg, ch in isomorphism_pairs(rng, 2000, ("p1", "p2", "f")):
        a, b = bisim.colored_graph(g, cg), bisim.colored_graph(h, ch)
        want, got = colored_isomorphic_reference(a, b), bisim.colored_isomorphic(a, b)
        assert got == want and (got is None or list(got) == list(want))
        every = [m for m in (e.as_dict() for e in graphs.find_induced_embeddings(g, h))
                 if all(cg[v] == ch[m[v]] for v in m)] if g.n == h.n else []
        assert graphs._isomorphisms(g, h, (a.colors, b.colors)) == every
        found += want is not None
        differ += sorted(cg.values()) != sorted(ch.values())
    assert found >= 300 and differ >= 300


def test_json_roundtrip():
    rt = bisim.colored_from_json(bisim.colored_to_json(PFPFP))
    assert rt == PFPFP
