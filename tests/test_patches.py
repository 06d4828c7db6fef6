import itertools

import pytest

from pcqi import graphs, patches, words
from pcqi.patches import ConjugateGenerator
from pcqi.words import GroupWord

from conftest import clique, cycle, path, random_graph
from oracles import equal_oracle, reduced_class


P3 = path(3)


def cg(g, base, conj_text=""):
    return patches.conjugate_generator(g, base, words.word(g, conj_text))


def test_conjugate_generator_canonicalizes():
    assert cg(P3, "c", "a") == ConjugateGenerator("c", (("a", 1),))
    assert cg(P3, "a", "b") == ConjugateGenerator("a", ())     # b in star(a)
    assert cg(P3, "a", "b c").name() == "a^c"
    assert cg(P3, "b", "a c") == ConjugateGenerator("b", ())   # whole star
    with pytest.raises(patches.PatchError):
        cg(P3, "z")


def test_commute_cg_matches_direct_commutator(rng, c5):
    for g in (P3, c5):
        cgs = set()
        for _ in range(14):
            base = rng.choice(g.vertices)
            letters = tuple((rng.choice(g.vertices), rng.choice((1, -1)))
                            for _ in range(rng.randrange(5)))
            cgs.add(patches.conjugate_generator(g, base, GroupWord(g, letters)))
        for a, b in itertools.combinations(sorted(cgs), 2):
            direct = words.commute(a.as_word(g), b.as_word(g))
            assert patches.commute_cg(g, a, b) == direct


def _random_cg(rng, g, max_len):
    letters = tuple((rng.choice(g.vertices), rng.choice((1, -1)))
                    for _ in range(rng.randrange(max_len + 1)))
    return patches.conjugate_generator(g, rng.choice(g.vertices),
                                       GroupWord(g, letters))


def test_commute_cg_matches_oracle(rng):
    """The cancellation-only edge test against the shuffle-and-cancel
    closure of the commutator, with conjugators of length <= 3."""
    commuting = 0
    for _ in range(400):
        g = random_graph(rng.randrange(1, 6), rng.random(), rng)
        a, b = _random_cg(rng, g, 3), _random_cg(rng, g, 3)
        ua, ub = a.as_word(g), b.as_word(g)
        commutator = (ua.inverse() * ub.inverse() * ua * ub).letters
        expected = equal_oracle(g, commutator, ())
        assert patches.commute_cg(g, a, b) == expected, (g, a, b)
        commuting += expected
    assert 0 < commuting < 400


def test_support_matches_oracle(rng):
    for _ in range(300):
        g = random_graph(rng.randrange(1, 6), rng.random(), rng)
        letters = tuple((rng.choice(g.vertices), rng.choice((1, -1)))
                        for _ in range(rng.randrange(9)))
        w = GroupWord(g, letters)
        shortest = next(iter(reduced_class(g, letters)))
        assert words.support(w) == {x for x, _ in shortest}
        assert words.support(w) == {x for x, _ in words.normal_form(w).letters}
        assert words.supported_in(w, words.support(w))


def test_base_patch_is_the_defining_graph(c5, petersen):
    for g in (P3, c5, petersen):
        p = patches.base_patch(g)
        assert patches.to_simplicial(p) == g
    with pytest.raises(patches.PatchError):
        patches.base_patch(graphs.graph([]))


def test_double_path_gives_star():
    p = patches.base_patch(P3)
    d = patches.double_along_star(p, ConjugateGenerator("a", ()), 1)
    s = patches.to_simplicial(d)
    assert s.vertices == ("a", "b", "c", "c^a")
    assert graphs.classify_shape(s).kind == "tree"
    assert graphs.degree(s, "b") == 3


def test_double_clique_is_fixed_point():
    for n in (2, 3, 4):
        p = patches.base_patch(clique(n))
        center = p.cg_vertices[0]
        d = patches.double_along_star(p, center, 1)
        assert d.n == n
        assert graphs.are_isomorphic(patches.to_simplicial(d), clique(n))


def test_double_c5_shares_closed_star(c5):
    p = patches.base_patch(c5)
    d = patches.double_along_star(p, ConjugateGenerator("v1", ()), 1)
    # the closed star {v5, v1, v2} is fixed, v3 and v4 get copies: 7 vertices
    assert d.n == 7
    s = patches.to_simplicial(d)
    assert graphs.girth(s) == 5
    assert {"v3^v1", "v4^v1"} <= set(s.vertices)


def test_double_guards():
    p = patches.base_patch(P3)
    a = ConjugateGenerator("a", ())
    with pytest.raises(patches.PatchError):
        patches.double_along_star(p, ConjugateGenerator("z", ()), 1)
    with pytest.raises(patches.PatchError):
        patches.double_along_star(p, a, 0)
    d = patches.double_along_star(p, a, 1)
    with pytest.raises(patches.PatchError):
        patches.double_along_star(d, a, 1)          # stale exponent
    patches.double_along_star(d, a, 2)              # fresh one is fine


def test_edges_always_recomputable(rng, c5):
    p = patches.base_patch(c5)
    for _ in range(3):
        center = rng.choice(p.cg_vertices)
        p = patches.double_along_star(p, center, 1)
    assert patches.recompute_edges(p).cg_edges == p.cg_edges


def test_doubled_edges_match_audit(c5, petersen):
    """Edges carried over by conjugation equal edges recomputed pair by pair."""
    for g, depth in ((c5, 2), (petersen, 1)):
        for p in patches.doubling_family(g, depth):
            assert patches.recompute_edges(p).cg_edges == p.cg_edges


def test_doubled_edges_match_audit_random(rng):
    for _ in range(40):
        g = random_graph(rng.randrange(2, 7), rng.random(), rng)
        p = patches.base_patch(g)
        for _ in range(rng.randrange(1, 4)):
            center = rng.choice(p.cg_vertices)
            exponent = rng.choice((1, -1, 2, -2))
            if ("double", center, exponent) in p.provenance:
                continue
            p = patches.double_along_star(p, center, exponent)
            assert patches.recompute_edges(p) == p


def test_has_vertex_matches_vertex_tuple(c5):
    p = patches.double_along_star(
        patches.base_patch(c5), ConjugateGenerator("v1", ()), 1)
    others = [ConjugateGenerator("v3", (("v2", 1),)), ConjugateGenerator("v9", ())]
    for cg in list(p.cg_vertices) + others:
        assert p.has_vertex(cg) == (cg in p.cg_vertices)


def test_doubling_family(c5, monkeypatch):
    fam = patches.doubling_family(c5, 2)
    assert [p.n for p in fam[:2]] == [5, 7]
    assert len(fam) == 31
    assert len({p.vertex_set for p in fam}) == len(fam)
    assert all(len(p.provenance) <= 2 for p in fam)
    with pytest.raises(patches.PatchError):
        patches.doubling_family(c5, -1)
    monkeypatch.setenv("PCQI_BUDGET_VERTICES", "8")
    with pytest.raises(patches.BudgetExceeded):     # not a shorter family
        patches.doubling_family(c5, 2)


def test_ball_patch(c5):
    b0 = patches.ball_patch(c5, 0)
    assert patches.to_simplicial(b0) == c5
    b1 = patches.ball_patch(c5, 1)
    assert b1.n > b0.n
    assert {cg for cg in b0.cg_vertices} <= set(b1.cg_vertices)
    # every conjugator is a canonical coset representative of length <= 1
    assert all(len(v.conj) <= 1 for v in b1.cg_vertices)
    with pytest.raises(patches.PatchError):
        patches.ball_patch(c5, -1)


def test_vertex_budget(monkeypatch, c5):
    monkeypatch.setenv("PCQI_BUDGET_VERTICES", "6")
    assert patches.vertex_budget() == 6
    p = patches.base_patch(c5)
    with pytest.raises(patches.BudgetExceeded):
        patches.double_along_star(p, p.cg_vertices[0], 1)


def test_patch_json(c5):
    p = patches.double_along_star(
        patches.base_patch(c5), ConjugateGenerator("v1", ()), 1)
    data = patches.patch_to_json(p)
    assert len(data["vertices"]) == p.n
    assert data["provenance"] == [
        {"step": "double", "center": "v1", "exponent": 1}]
    idx_pairs = {tuple(e) for e in data["edges"]}
    assert len(idx_pairs) == len(p.cg_edges)
