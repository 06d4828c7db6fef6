import itertools
from types import MappingProxyType

import pytest

from pcqi import bisim, classify, embeddings, graphs, ntrees

from oracles import generate_ntrees, ntree_oracle, validate_ntree_reference


def K(n, *simplices):
    return ntrees.complex_(n, simplices)


PATH4 = K(1, "ab", "bc", "cd")
PATH5 = K(1, "ab", "bc", "cd", "de")
STAR3 = K(1, "cx", "cy", "cz")
TWO_TRIANGLES = K(2, "abc", "bcd")


def test_complex_basics():
    assert PATH4.vertices == frozenset("abcd")
    assert ntrees.skeleton(PATH4) == graphs.graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    with pytest.raises(ntrees.NTreeError):
        K(2, "ab")                       # wrong dimension
    rt = ntrees.complex_from_json(ntrees.complex_to_json(TWO_TRIANGLES))
    assert rt == TWO_TRIANGLES


def test_validate_examples():
    assert ntrees.validate_ntree(K(1, "ab")) == (True, None)
    assert ntrees.validate_ntree(PATH4) == (True, None)
    assert ntrees.validate_ntree(TWO_TRIANGLES) == (True, None)
    ok, why = ntrees.validate_ntree(K(1, "ab", "bc", "cd", "da"))   # C4
    assert not ok and why
    ok, why = ntrees.validate_ntree(K(2, "abc", "cde"))   # vertex-only gluing
    assert not ok and why
    ok, why = ntrees.validate_ntree(K(2, "abc", "abd", "acd"))
    assert not ok


def test_validate_matches_gluing_oracle(rng):
    for n in (1, 2, 3):
        # valid by construction
        for k in generate_ntrees(n, 5, rng, 25):
            assert ntree_oracle(k)
            assert ntrees.validate_ntree(k)[0]
        # random candidates, valid or not
        agree = 0
        pool = [f"g{i}" for i in range(n + 4)]
        for _ in range(40):
            simplices = {frozenset(rng.sample(pool, n + 1))
                         for _ in range(rng.randrange(1, 6))}
            k = ntrees.NTreeComplex(n, frozenset(simplices))
            assert ntrees.validate_ntree(k)[0] == ntree_oracle(k)
            agree += 1
        assert agree == 40


def test_validate_matches_reference(rng):
    """Count-based peeling gives the old union-of-the-rest peeling's
    (ok, reason) on valid complexes, valid ones with a simplex added or
    removed, and random candidates."""
    cases = valid = 0
    for n in (1, 2, 3):
        pool = [f"g{i}" for i in range(n + 5)]
        candidates = []
        for k in generate_ntrees(n, 8, rng, 250):
            extra = frozenset(rng.sample(sorted(k.vertices | set(pool)), n + 1))
            candidates += [k, ntrees.NTreeComplex(n, k.simplices | {extra})]
            if len(k.simplices) > 1:
                drop = rng.choice(sorted(k.simplices, key=sorted))
                candidates.append(ntrees.NTreeComplex(n, k.simplices - {drop}))
        for _ in range(250):
            candidates.append(ntrees.NTreeComplex(n, frozenset(
                frozenset(rng.sample(pool, n + 1))
                for _ in range(rng.randrange(0, 7)))))
        for k in candidates:
            got = ntrees.validate_ntree.__wrapped__(k)
            assert got == validate_ntree_reference(k), sorted(map(sorted, k.simplices))
            cases += 1
            valid += got[0]
    assert cases >= 2000 and 0 < valid < cases


def test_cached_results_are_read_only():
    faces = ntrees.shared_faces(TWO_TRIANGLES)
    assert isinstance(faces, MappingProxyType)
    assert all(isinstance(fs, frozenset) for fs in faces.values())
    col = ntrees.vertex_coloring(PATH4)
    assert isinstance(col, MappingProxyType)
    with pytest.raises(TypeError):
        col["a"] = 2
    with pytest.raises(TypeError):
        faces[frozenset("bc")] = frozenset()
    assert isinstance(ntrees.pieces(PATH5), tuple)
    assert ntrees.vertex_coloring(PATH4)["a"] == 1


def test_equal_complex_gets_equal_results(rng):
    """A complex equal to a cached one but built separately (from strings,
    or by classify from its skeleton) hits the cache, and every cached
    derivation equals a fresh, uncached one."""
    derivations = (ntrees.skeleton, ntrees.shared_faces, ntrees.validate_ntree,
                   ntrees.vertex_coloring, ntrees.pieces, ntrees.build_gph)
    for n in (1, 2, 3):
        for k in generate_ntrees(n, 6, rng, 5):
            first = [fn(k) for fn in derivations]
            rebuilt = ntrees.complex_(n, [sorted(s) for s in k.simplices])
            again = classify.ntree_complex_of(ntrees.skeleton(k))
            assert rebuilt == k == again and rebuilt is not k
            for fn, want in zip(derivations, first):
                assert fn(rebuilt) == want == fn.__wrapped__(again), fn.__name__
                assert fn(again) is want, fn.__name__


def test_vertex_coloring(rng):
    col = ntrees.vertex_coloring(PATH4)
    assert [col[v] for v in "abcd"] == [1, 2, 1, 2]
    col2 = ntrees.vertex_coloring(TWO_TRIANGLES)
    assert col2["d"] == col2["a"]                 # both apexes off the spine
    assert {col2["a"], col2["b"], col2["c"]} == {1, 2, 3}
    # Every simplex gets every color and the seed is colored in vertex
    # order: together these pin the coloring.
    generated = [k for n in (1, 2, 3) for k in generate_ntrees(n, 10, rng, 30)]
    for k in [PATH5, STAR3, TWO_TRIANGLES] + generated:
        col = ntrees.vertex_coloring(k)
        for s in k.simplices:
            assert sorted(col[v] for v in s) == list(range(1, k.n + 2))
        seed = min(k.simplices, key=lambda s: tuple(sorted(s)))
        assert [col[v] for v in sorted(seed)] == list(range(1, k.n + 2))
    with pytest.raises(ntrees.NTreeError):
        ntrees.vertex_coloring(K(1, "ab", "bc", "ca"))


def test_pieces_and_gph():
    ps = ntrees.pieces(PATH4)
    assert [sorted(p.spine) for p in ps] == [["b"], ["c"]]
    assert sorted(ps[0].tips) == ["a", "c"]

    g = ntrees.build_gph(PATH4)
    assert set(g.colors.values()) == {"p1", "p2", "f"}
    assert g.graph.n == 3 and len(g.graph.edges) == 2

    g1 = ntrees.build_gph(STAR3)                  # single piece, no f
    assert g1.graph.n == 1
    # spine {c} is colored 1, so the piece is labelled by the missing color
    assert list(g1.colors.values()) == ["p2"]

    g5 = ntrees.build_gph(PATH5)
    colors = sorted(g5.colors.values())
    assert colors == ["f", "f", "p1", "p1", "p2"]

    g2 = ntrees.build_gph(TWO_TRIANGLES)          # one piece, spine {b,c}
    assert g2.graph.n == 1


def test_gph_invariants(rng):
    for n in (1, 2):
        for k in generate_ntrees(n, 5, rng, 20):
            g = ntrees.build_gph(k)
            if g.graph.n == 0:
                continue
            assert graphs.is_tree(g.graph) or g.graph.n == 1
            for v in g.graph.vertices:
                if g.color(v) == "f":
                    nbrs = graphs.link(g.graph, v)
                    assert 2 <= len(nbrs) <= n + 1
                    labels = [g.color(u) for u in nbrs]
                    assert len(set(labels)) == len(labels)


def test_double_ntree():
    single = K(2, "abc")
    d, fold = ntrees.double_ntree(single, "a")
    assert d == single

    p3 = K(1, "ab", "bc")
    d, fold = ntrees.double_ntree(p3, "a")
    sk = ntrees.skeleton(d)
    assert graphs.are_isomorphic(sk, graphs.graph(
        "wxyz", [("w", "x"), ("w", "y"), ("w", "z")])) is not None
    assert fold["c'"] == "c"

    with pytest.raises(ntrees.NTreeError):
        ntrees.double_ntree(p3, "zz")


def test_double_is_bisimilar(rng):
    fixtures = [PATH4, PATH5, STAR3, TWO_TRIANGLES,
                K(2, "abc", "bcd", "cde")]
    for k in fixtures:
        for v in sorted(k.vertices):
            d, _ = ntrees.double_ntree(k, v)
            ok, _ = bisim.bisimilar(ntrees.build_gph(d), ntrees.build_gph(k))
            assert ok, (sorted(map(sorted, k.simplices)), v)


def test_weak_cover_to_embedding_examples():
    # identity on a single simplex: color-matched bases, no conjugator
    cert = ntrees.weak_cover_to_embedding(K(2, "abc"), K(2, "xyz"), {})
    assert embeddings.verify_certificate(cert)
    assert {v: cg.name() for v, cg in cert.mapping} == {"a": "x", "b": "y", "c": "z"}

    # the doubled path folds onto the path
    d, fold = ntrees.double_ntree(PATH4, "a")
    f = ntrees.induced_gph_map(d, PATH4, fold)
    ok, _ = bisim.check_weak_covering(f, ntrees.build_gph(d), ntrees.build_gph(PATH4))
    assert ok
    cert = ntrees.weak_cover_to_embedding(d, PATH4, f)
    assert embeddings.verify_certificate(cert)
    by_name = {v: cg.name() for v, cg in cert.mapping}
    assert by_name["c'"] == "c^a"

    # a non-covering map is rejected
    with pytest.raises(ntrees.NTreeError):
        ntrees.weak_cover_to_embedding(d, PATH4, {k: "p:b" for k in f})


def test_weak_cover_path5_onto_path4():
    f = {"p:b": "p:b", "p:d": "p:b", "p:c": "p:c",
         "f:b,c": "f:b,c", "f:c,d": "f:b,c"}
    ok, why = bisim.check_weak_covering(
        f, ntrees.build_gph(PATH5), ntrees.build_gph(PATH4))
    assert ok, why
    cert = ntrees.weak_cover_to_embedding(PATH5, PATH4, f)
    assert embeddings.verify_certificate(cert)


# Vertex names holding the id separator `,` or the escape `\`: gph ids
# escape both, and no code parses an id back into names.

def test_gph_ids_of_comma_names_stay_distinct():
    # the path x - a - "b,c" - "a,b" - c - y: 4 pieces, 3 shared edges
    k = K(1, ["x", "a"], ["a", "b,c"], ["b,c", "a,b"], ["a,b", "c"], ["c", "y"])
    g = ntrees.build_gph(k)
    assert g.graph.n == 7
    assert set(g.graph.vertices) == {
        "p:a", "p:b\\,c", "p:a\\,b", "p:c",
        "f:a,b\\,c", "f:a\\,b,b\\,c", "f:a\\,b,c"}
    # a backslash in a name is doubled, so ids stay reversible
    g = ntrees.build_gph(K(1, ["x", "a\\"], ["a\\", "b"], ["b", "y"]))
    assert set(g.graph.vertices) == {"p:a\\\\", "p:b", "f:a\\\\,b"}
    # names without `,` or `\` keep their ids
    assert ntrees.build_gph(PATH5).graph.vertices == (
        "f:b,c", "f:c,d", "p:b", "p:c", "p:d")


def test_weak_cover_to_embedding_with_comma_names():
    k = K(1, ["x", "a,b"], ["a,b", "y"], ["y", "a"], ["y", "b"])
    d, fold = ntrees.double_ntree(k, "y")
    f = ntrees.induced_gph_map(d, k, fold)
    ok, why = bisim.check_weak_covering(f, ntrees.build_gph(d), ntrees.build_gph(k))
    assert ok, why
    cert = ntrees.weak_cover_to_embedding(d, k, f)
    assert embeddings.verify_certificate(cert)
    assert {v for v, _ in cert.mapping} == set(d.vertices)
