"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every test is deterministic (fixed seeds) and enforces its own runtime
budget on top of the functional assertions.
"""

import itertools
import random
import sys
import time

from pcqi import (bisim, classify, embeddings, graphs, ntrees, patches,
                  rigidity, words)
from pcqi.embeddings import SearchBudget
from pcqi.words import GroupWord

from conftest import all_trees, clique, cycle, path, random_graph
from oracles import (bisimilar_oracle, equal_oracle, generate_ntrees,
                     ntree_oracle)
from test_classify import TABLE


def report(capsys, num, name, started, limit):
    elapsed = time.time() - started
    ok = elapsed < limit
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"runtime {elapsed:.1f}s exceeded the {limit}s budget"


def petersen_graph():
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    edges = ([(outer[i], outer[(i + 1) % 5]) for i in range(5)]
             + [(outer[i], inner[i]) for i in range(5)]
             + [(inner[i], inner[(i + 2) % 5]) for i in range(5)])
    return graphs.graph(outer + inner, edges)


def random_word(g, rng, max_len):
    vs = list(g.vertices)
    return tuple((rng.choice(vs), rng.choice((1, -1)))
                 for _ in range(rng.randrange(max_len + 1)))


def random_tree(k, rng, prefix="t"):
    vs = [f"{prefix}{i}" for i in range(k)]
    es = [(vs[i], vs[rng.randrange(i)]) for i in range(1, k)]
    return graphs.graph(vs, es)


def test_criterion_01_word_oracle(capsys):
    started = time.time()
    rng = random.Random(101)
    comparisons = 0
    while comparisons < 10_000:
        g = random_graph(rng.randrange(1, 6), rng.random(), rng)
        u = random_word(g, rng, 8)
        w = u[::-1] if rng.random() < 0.3 else random_word(g, rng, 8)
        got = words.equal(GroupWord(g, u), GroupWord(g, w))
        assert got == equal_oracle(g, u, w), (sorted(g.edges, key=sorted), u, w)
        comparisons += 1
    report(capsys, 1, "word-problem oracle equivalence", started, 60)


def test_criterion_02_clique_fixed_point(capsys):
    started = time.time()
    for n in range(2, 6):
        k = clique(n)
        for p in patches.doubling_family(k, 3):
            s = patches.to_simplicial(p)
            assert graphs.are_isomorphic(s, k), n
    report(capsys, 2, "clique extension fixed point", started, 5)


def test_criterion_03_trees_embed_in_path_extension(capsys):
    started = time.time()
    target = path(4)                       # diameter 3
    budget = SearchBudget(max_depth=6)
    checked = 0
    for size in range(3, 9):
        for t in all_trees(size):
            if graphs.diameter(t) < 2:
                continue
            cert = embeddings.search_embedding(t, target, budget)
            assert cert is not None, sorted(map(sorted, t.edges))
            assert embeddings.verify_certificate(cert)
            checked += 1
    assert checked == 46
    report(capsys, 3, "trees embed in diameter-3 path extension", started, 300)


def test_criterion_04_girth_preserved(capsys):
    started = time.time()
    c4 = cycle(4, "q")
    for g in (cycle(5), petersen_graph()):
        fam = patches.doubling_family(g, 3)
        for p in fam:
            assert graphs.girth(p) >= 5     # excludes C4, induced or not
        # direct induced-C4 search on a sample, belt and braces
        for p in fam[:20]:
            s = patches.to_simplicial(p)
            assert not any(True for _ in graphs.find_induced_embeddings(c4, s))
    report(capsys, 4, "girth >= 5, no induced C4 under doubling", started, 120)


def test_criterion_05_wedge_counterexample_fixture(capsys):
    started = time.time()
    c5, wedge = cycle(5), classify.wedge_of_c5s()
    budget = SearchBudget(max_depth=4)
    fwd = embeddings.search_embedding(wedge, c5, budget)
    bwd = embeddings.search_embedding(c5, wedge, budget)
    assert fwd is not None and embeddings.verify_certificate(fwd)
    assert bwd is not None and embeddings.verify_certificate(bwd)
    rep = classify.qi_via_extension_criterion(c5, wedge, budget)
    assert rep["forward_found"] and rep["backward_found"]
    assert rep["classify"].verdict == "NotQI"
    assert rep["classify"].klass == "fixture"
    report(capsys, 5, "wedge-of-C5s mutual embedding, NotQI fixture", started, 300)


def _all_ntrees(n, max_simplices):
    """Exhaustive n-trees with <= max_simplices top simplices, up to
    isomorphism, generated by repeated leaf gluing."""
    def canon(k):
        vs = sorted(k.vertices)
        best = None
        for perm in itertools.permutations(range(len(vs))):
            m = {v: perm[i] for i, v in enumerate(vs)}
            enc = tuple(sorted(tuple(sorted(m[v] for v in s))
                               for s in k.simplices))
            if best is None or enc < best:
                best = enc
        return best

    first = ntrees.complex_(n, [[f"g{i}" for i in range(n + 1)]])
    layer = {canon(first): first}
    out = [first]
    for _ in range(max_simplices - 1):
        nxt = {}
        for k in layer.values():
            fresh = f"g{len(k.vertices)}"
            for s in k.simplices:
                for face in itertools.combinations(sorted(s), n):
                    k2 = ntrees.NTreeComplex(
                        n, k.simplices | {frozenset(face) | {fresh}})
                    c = canon(k2)
                    if c not in nxt:
                        nxt[c] = k2
        layer = nxt
        out.extend(layer.values())
    return out


def test_criterion_06_ntree_pipeline(capsys):
    started = time.time()
    rng = random.Random(106)
    for n in (1, 2):
        valid = _all_ntrees(n, 5)
        for k in valid:
            assert ntrees.validate_ntree(k)[0]
            assert ntree_oracle(k)
            g = ntrees.build_gph(k)
            if g.graph.n:
                assert graphs.is_tree(g.graph) or g.graph.n == 1
                assert bisim.properly_colored(g)
                for v in g.graph.vertices:
                    if g.color(v) == "f":
                        assert 2 <= len(graphs.link(g.graph, v)) <= n + 1
        # random candidates, valid or not, still agree with the oracle
        pool = [f"g{i}" for i in range(n + 4)]
        for _ in range(60):
            simplices = {frozenset(rng.sample(pool, n + 1))
                         for _ in range(rng.randrange(1, 6))}
            k = ntrees.NTreeComplex(n, frozenset(simplices))
            assert ntrees.validate_ntree(k)[0] == ntree_oracle(k)
    report(capsys, 6, "n-tree validation vs gluing oracle, gph shape", started, 120)


def test_criterion_07_bisimilarity_oracle(capsys):
    started = time.time()
    rng = random.Random(107)
    palette = ["c1", "c2", "c3"]
    cases = 0
    while cases < 500:
        g1 = random_graph(rng.randrange(1, 7), rng.random(), rng, "a")
        g2 = random_graph(rng.randrange(1, 7), rng.random(), rng, "b")
        if not (graphs.is_connected(g1) and graphs.is_connected(g2)):
            continue
        c1 = bisim.colored_graph(g1, {v: rng.choice(palette)
                                      for v in g1.vertices})
        c2 = bisim.colored_graph(g2, {v: rng.choice(palette)
                                      for v in g2.vertices})
        assert bisim.bisimilar(c1, c2)[0] == bisimilar_oracle(c1, c2)
        cases += 1
    report(capsys, 7, "bisimilarity vs exhaustive oracle", started, 600)


def _tree_complex(t):
    return ntrees.complex_(1, [tuple(e) for e in t.edges])


def test_criterion_08_tree_qi_consistency(capsys):
    started = time.time()
    rng = random.Random(108)
    pairs = 0
    while pairs < 50:
        t1 = random_tree(rng.randrange(4, 11), rng, "a")
        t2 = random_tree(rng.randrange(4, 11), rng, "b")
        if graphs.diameter(t1) < 3 or graphs.diameter(t2) < 3:
            continue
        ok, _, _ = bisim.bisimilar_up_to_pcolor_permutation(
            ntrees.build_gph(_tree_complex(t1)),
            ntrees.build_gph(_tree_complex(t2)), 1)
        assert ok, (sorted(t1.edges, key=sorted), sorted(t2.edges, key=sorted))
        pairs += 1
    # diameter 2 (a star) against diameter >= 3: never bisimilar
    for k in (2, 3, 5):
        star_k = graphs.graph(["c"] + [f"l{i}" for i in range(k)],
                              [("c", f"l{i}") for i in range(k)])
        deep = random_tree(8, rng, "d")
        while graphs.diameter(deep) < 3:
            deep = random_tree(8, rng, "d")
        ok, _, _ = bisim.bisimilar_up_to_pcolor_permutation(
            ntrees.build_gph(_tree_complex(star_k)),
            ntrees.build_gph(_tree_complex(deep)), 1)
        assert not ok
    report(capsys, 8, "tree QI classes match gph bisimilarity", started, 120)


def test_criterion_09_doubling_bisimilar(capsys):
    started = time.time()
    rng = random.Random(109)
    done = 0
    for n in (1, 2):
        for k in generate_ntrees(n, 5, rng, 10):
            for v in sorted(k.vertices):
                d, _ = ntrees.double_ntree(k, v)
                ok, _ = bisim.bisimilar(ntrees.build_gph(d),
                                        ntrees.build_gph(k))
                assert ok, (sorted(map(sorted, k.simplices)), v)
            done += 1
    assert done == 20
    report(capsys, 9, "gph of a double is bisimilar to gph", started, 120)


def test_criterion_10_constructive_embedding(capsys):
    started = time.time()
    rng = random.Random(110)
    todo = [(1, 10), (2, 3)]
    for n, count in todo:
        built = 0
        while built < count:
            (k,) = generate_ntrees(n, 5, rng, 1)
            v = rng.choice(sorted(k.vertices))
            d, fold = ntrees.double_ntree(k, v)
            f = ntrees.induced_gph_map(d, k, fold)
            ok, why = bisim.check_weak_covering(
                f, ntrees.build_gph(d), ntrees.build_gph(k))
            assert ok, why
            cert = ntrees.weak_cover_to_embedding(d, k, f)
            assert embeddings.verify_certificate(cert), \
                (sorted(map(sorted, k.simplices)), v)
            built += 1
    report(capsys, 10, "weak coverings yield verified embeddings", started, 300)


def test_criterion_11_atomic_rigidity(capsys):
    started = time.time()
    c5, pet = cycle(5), petersen_graph()
    assert rigidity.rigidity_experiment(c5, 0).embeddings_found == 10
    assert rigidity.rigidity_experiment(pet, 0).embeddings_found == 120
    rep = rigidity.rigidity_experiment(c5, 2)
    assert rep.failures == () and rep.embeddings_found > 10
    rep = rigidity.rigidity_experiment(pet, 1)
    assert rep.failures == () and rep.embeddings_found > 120
    report(capsys, 11, "atomic rigidity: conjugation + automorphism only", started, 600)


def test_criterion_12_classifier_truth_table(capsys):
    started = time.time()
    core_examples = [
        (path(3), graphs.graph(["c"] + [f"l{i}" for i in range(5)],
                               [("c", f"l{i}") for i in range(5)]),
         "QI"),                                          # Z x F_k, k >= 2
        (path(4), random_tree(1, random.Random(0)), None),  # placeholder below
        (cycle(5), petersen_graph(), "NotQI"),
        (graphs.graph(["e0", "e1"]), graphs.graph(["e0", "e1", "e2"]), "QI"),
        (clique(3), clique(4), "NotQI"),
    ]
    diam4 = graphs.graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"),
                                   ("d", "e")])
    core_examples[1] = (path(4), diam4, "QI")
    for d, g, verdict in core_examples:
        assert classify.classify_pair(d, g).verdict == verdict
    for d, g, verdict, klass in TABLE:
        got = classify.classify_pair(d, g)
        assert (got.verdict, got.klass) == (verdict, klass)
    assert len(TABLE) >= 20
    report(capsys, 12, "classifier truth table", started, 60)


def test_criterion_13_power_map_injectivity(capsys):
    started = time.time()
    rng = random.Random(113)
    for g in (cycle(5), path(3)):
        sampled = 0
        while sampled < 1000:
            w = GroupWord(g, random_word(g, rng, 6))
            if words.is_trivial(w):
                continue
            for n in (2, 3):
                assert not words.is_trivial(words.power_endomorphism(n, w))
            sampled += 1
    report(capsys, 13, "power endomorphism keeps words nontrivial", started, 60)
