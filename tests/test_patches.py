import itertools
import json
import random

import pytest

from pcqi import cli, embeddings, graphs, ntrees, patches, words
from pcqi.patches import ConjugateGenerator
from pcqi.words import GroupWord

from conftest import clique, cycle, path, random_graph
from oracles import (commute_cg_reference, equal_oracle, patch_edges_reference,
                     reduced_class)


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


def _random_letters(rng, g, max_len):
    return tuple((rng.choice(g.vertices), rng.choice((1, -1)))
                 for _ in range(rng.randrange(max_len + 1)))


def _random_cg(rng, g, max_len):
    letters = _random_letters(rng, g, max_len)
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
    """Edges settled from the defining graph, carried over by conjugation
    and tested on adjacent bases equal edges rebuilt pair by pair with the
    word algebra alone."""
    for g, depth in ((c5, 3), (petersen, 2)):
        for p in patches.doubling_family(g, depth):
            assert patch_edges_reference(p) == p.cg_edges
            assert patches.recompute_edges(p) == p


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
            assert patch_edges_reference(p) == p.cg_edges
            assert patches.recompute_edges(p) == p


def _check_masks(p):
    """`nbrs` is symmetric, has no self-bits and no bits past the last
    vertex, and equals the masks built from `cg_edges`."""
    for i, m in enumerate(p.nbrs):
        assert not m >> i & 1 and m >> p.n == 0
        assert all((p.nbrs[j] >> i & 1) == (m >> j & 1) for j in range(p.n))
    assert list(p.nbrs) == graphs._masks(p.cg_vertices, p.cg_edges)


def test_masks_are_symmetric_and_match_the_edges(c5, petersen):
    for g, depth in ((c5, 3), (petersen, 2)):
        for p in patches.doubling_family(g, depth):
            _check_masks(p)


def test_masks_extended_over_random_sequences(rng):
    """Masks extended from the parent over doublings with exponents in
    {±1, ±2, 3}, against the masks of the audited edges."""
    for _ in range(40):
        g = random_graph(rng.randrange(2, 7), rng.random(), rng)
        p = patches.base_patch(g)
        _check_masks(p)
        for _ in range(rng.randrange(1, 5)):
            center = rng.choice(p.cg_vertices)
            exponent = rng.choice((1, -1, 2, -2, 3))
            if ("double", center, exponent) in p.provenance:
                continue
            p = patches.double_along_star(p, center, exponent)
            _check_masks(p)
            assert patch_edges_reference(p) == p.cg_edges


def test_inverse_doubling_maps_onto_parent_vertices(c5):
    """Doubling at v1 by +1 and then by -1: the second copy sends v3^v1 and
    v4^v1 back onto the parent's v3 and v4, and only v3^(v1^-1) and
    v4^(v1^-1) are new."""
    v1 = ConjugateGenerator("v1", ())
    d = patches.double_along_star(patches.base_patch(c5), v1, 1)
    dd = patches.double_along_star(d, v1, -1)
    assert dd.cg_vertices[:d.n] == d.cg_vertices
    assert [cg.name() for cg in dd.cg_vertices[d.n:]] == ["v3^v1^-1", "v4^v1^-1"]
    _check_masks(dd)
    assert patch_edges_reference(dd) == dd.cg_edges
    assert patches.recompute_edges(dd) == dd


def test_equal_conjugators_commute_without_the_word_algebra(rng, monkeypatch):
    """u^x and w^x commute for adjacent u, w: `_commute_cg` answers so
    before any coset strip, and the reference agrees."""
    pairs, conjugated = [], 0
    while len(pairs) < 400:
        g = random_graph(rng.randrange(3, 8), rng.uniform(0.2, 0.7), rng)
        edges = sorted(tuple(sorted(e)) for e in g.edges)
        if not edges:
            continue
        u, w = rng.choice(edges)
        x = words.coset_canonical(u, GroupWord(g, _random_letters(rng, g, 5))).letters
        if words.coset_canonical(w, GroupWord(g, x)).letters != x:
            continue        # x must be canonical for both bases
        pairs.append((g, ConjugateGenerator(u, x), ConjugateGenerator(w, x)))
        conjugated += bool(x)
    assert conjugated > 100
    assert all(commute_cg_reference(g, a, b) for g, a, b in pairs)
    monkeypatch.setattr(words, "_coset_strip", None)
    assert all(patches._commute_cg.__wrapped__(g, a, b) for g, a, b in pairs)


def test_defining_graph_settles_same_and_nonadjacent_bases(rng):
    """Fact 1 of Kim-Koberda: distinct conjugates of one generator, and
    conjugates of two non-adjacent generators, never commute.  The word
    oracle confirms it, and `commute_cg` answers without the word algebra."""
    same = nonadjacent = 0
    for _ in range(300):
        g = random_graph(rng.randrange(2, 7), rng.random(), rng)
        cgs = sorted({_random_cg(rng, g, 4) for _ in range(4)})
        for a, b in itertools.combinations(cgs, 2):
            if a.base != b.base and g.has_edge(a.base, b.base):
                continue
            ua, ub = a.as_word(g), b.as_word(g)
            assert not equal_oracle(g, (ua * ub).letters, (ub * ua).letters)
            misses = patches._commute_cg.cache_info().misses
            assert not patches.commute_cg(g, a, b)
            assert not patches.commute_cg(g, b, a)
            assert patches._commute_cg.cache_info().misses == misses
            same += a.base == b.base
            nonadjacent += a.base != b.base
    assert same > 100 and nonadjacent > 100


def test_half_length_commute_test_matches_reference(rng):
    """The coset-strip test against the full-length support test of the
    reference, on pairs with adjacent distinct bases.  A real doubling
    batch has few commuting pairs, so over a third here are forced to
    commute: u^h and w^h for an edge uw, whose canonical conjugators still
    differ."""
    total = forced = commuting = 0
    while total < 20000:
        g = random_graph(rng.randrange(2, 7), rng.random(), rng)
        edges = sorted(tuple(sorted(e)) for e in g.edges)
        if not edges:
            continue
        for _ in range(40):
            u, w = rng.choice(edges)[::rng.choice((1, -1))]
            x = _random_letters(rng, g, 4)
            is_forced = rng.random() < 0.4
            y = x if is_forced else _random_letters(rng, g, 4)
            a = patches.conjugate_generator(g, u, GroupWord(g, x))
            b = patches.conjugate_generator(g, w, GroupWord(g, y))
            expected = commute_cg_reference(g, a, b)
            assert patches.commute_cg(g, a, b) == expected, (g, a, b)
            assert patches.commute_cg(g, b, a) == expected, (g, a, b)
            assert expected or not is_forced
            total += 1
            forced += is_forced
            commuting += expected
    assert forced >= 0.3 * total
    assert forced < commuting < total


def test_cross_edge_kept_when_the_copy_meets_only_the_star():
    """P4 = z-p-a-b: the patch {z, a, b^(z^-1)} doubled at z meets its copy
    only in the star of z, yet gains the cross edge a-b."""
    g = graphs.graph("zpab", [("z", "p"), ("p", "a"), ("a", "b")])
    z, a, b = (ConjugateGenerator(v, ()) for v in "zab")
    p = patches._build(g, [z, a, cg(g, "b", "z^-1")], ())
    assert p.cg_edges == frozenset()
    d = patches.double_along_star(p, z, 1)
    assert d.has_vertex(b) and frozenset((a, b)) in d.cg_edges
    assert patch_edges_reference(d) == d.cg_edges


R6 = graphs.graph([f"r{i}" for i in range(6)], [
    ("r0", "r1"), ("r0", "r2"), ("r0", "r3"), ("r1", "r2"), ("r1", "r4"),
    ("r1", "r5"), ("r2", "r5"), ("r3", "r4")])
R6_STEPS = ["r2:-2", "r4^r2^-1 r2^-1:2", "r3:-1", "r2:2"]


def test_cli_sequence_with_a_commuting_cross_pair(tmp_path, capsys):
    """A `pcqi patch` sequence with mixed exponents whose last doubling has
    a commuting cross pair."""
    f = tmp_path / "r6.json"
    f.write_text(graphs.to_json(R6))
    argv = ["patch", "--graph", str(f)]
    for step in R6_STEPS:
        argv += ["--double", step]
    assert cli.main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert (len(data["vertices"]), len(data["edges"])) == (40, 69)
    p = patches.base_patch(R6)
    for step in R6_STEPS:
        name, exponent = step.rsplit(":", 1)
        p = patches.double_along_star(
            p, patches.named_vertices(p)[name], int(exponent))
    assert patches.patch_to_json(p) == data
    assert patch_edges_reference(p) == p.cg_edges


def _record_commute_calls(monkeypatch):
    """Record the pairs that reach `patches._commute_cg`, which
    `double_along_star` reads from the module on each call."""
    sent = []
    inner = patches._commute_cg

    def recorded(g, a, b):
        sent.append(frozenset((a, b)))
        return inner(g, a, b)
    monkeypatch.setattr(patches, "_commute_cg", recorded)
    return sent


def _double_and_check_branches(sent, p, center, exponent):
    """Double `p` and check the Bass–Serre branch cut against the
    reference.  The child's edges are exact; every commuting pair off the
    center's closed star, cross pairs (one end outside the copy, the other
    outside the parent) among them, lies in one branch; the copy moves each
    branch k to k - exponent; and the pairs sent to `_commute_cg` are
    exactly the cross pairs on adjacent bases in one branch.  Returns the
    child and its number of commuting cross pairs."""
    g = p.graph
    sent.clear()
    child = patches.double_along_star(p, center, exponent)
    edges = patch_edges_reference(child)
    assert edges == child.cg_edges
    branch = {v: patches._branch(g, center, v) for v in child.cg_vertices
              if not commute_cg_reference(g, v, center)}
    zc = GroupWord(g, center.conj_inverse()
                   + ((center.base, 1 if exponent > 0 else -1),) * abs(exponent)
                   + center.conj)
    copy = set()
    for v in p.cg_vertices:
        image = patches.conjugate_generator(g, v.base, v.conj_word(g) * zc)
        copy.add(image)
        if v in branch:
            assert branch[image] == branch[v] - exponent
    cross = [frozenset((x, y)) for x in p.cg_vertices if x not in copy
             for y in child.cg_vertices[p.n:]]
    assert len(set(sent)) == len(sent) and set(sent) == {
        e for e in cross
        if len({v.base for v in e}) == 2 and g.has_edge(*{v.base for v in e})
        and len({branch[v] for v in e}) == 1}
    for x, y in edges:
        if x in branch and y in branch:
            assert branch[x] == branch[y], (g, p.provenance, x, y)
    return child, len(edges.intersection(cross))


def _p4_case():
    """P4 = z-p-a-b and the patch {z, a, b^(z^-1)}, with center z."""
    g = graphs.graph("zpab", [("z", "p"), ("p", "a"), ("a", "b")])
    z = ConjugateGenerator("z", ())
    return patches._build(g, [z, ConjugateGenerator("a", ()), cg(g, "b", "z^-1")], ()), z


def test_commuting_cross_pairs_lie_in_one_branch(monkeypatch):
    """The branch cut of `double_along_star` keeps every commuting cross
    pair: over 2,000 random doublings with exponents in {±1, ±2, 3}, on the
    P4 case and on the R6 sequence."""
    sent = _record_commute_calls(monkeypatch)
    rng = random.Random(19)
    doublings = 0
    while doublings < 2000:
        g = random_graph(rng.randrange(2, 7), rng.random(), rng)
        p = patches.base_patch(g)
        for _ in range(rng.randrange(1, 5)):
            center = rng.choice(p.cg_vertices)
            exponent = rng.choice((1, -1, 2, -2, 3))
            if ("double", center, exponent) in p.provenance:
                continue
            p, _ = _double_and_check_branches(sent, p, center, exponent)
            doublings += 1
    p4, z = _p4_case()
    assert _double_and_check_branches(sent, p4, z, 1)[1] == 1
    p = patches.base_patch(R6)
    for step in R6_STEPS:
        name, exponent = step.rsplit(":", 1)
        p, commuting = _double_and_check_branches(
            sent, p, patches.named_vertices(p)[name], int(exponent))
    assert commuting == 1        # the last step's, r0^(r4 r4) with r1^(r3^-1)


def test_branch_cut_leaves_exponent_1_families_no_cross_pairs(c5, petersen, monkeypatch):
    """The exponent-1 families of C5 at depth 3 and Petersen at depth 2
    send only the base patch's adjacent pairs to `_commute_cg`; the last
    R6 step and the P4 case still send their commuting cross pairs."""
    sent = _record_commute_calls(monkeypatch)
    for g, depth in ((c5, 3), (petersen, 2)):
        sent.clear()
        family = patches.doubling_family(g, depth)
        assert len(family) > 100
        assert len(sent) == len(g.edges)        # all from `base_patch`
    p = patches.base_patch(R6)
    for step in R6_STEPS[:-1]:
        name, exponent = step.rsplit(":", 1)
        p = patches.double_along_star(
            p, patches.named_vertices(p)[name], int(exponent))
    sent.clear()
    patches.double_along_star(p, patches.named_vertices(p)["r2"], 2)
    assert len(sent) >= 1
    p4, z = _p4_case()
    sent.clear()
    patches.double_along_star(p4, z, 1)
    assert len(sent) == 1


def test_caches_are_bounded():
    for fn in (words._normal_letters, words._coset_letters,
               patches._commute_cg, patches._ball_conjugators,
               embeddings._doubling_level, ntrees.skeleton, ntrees.shared_faces,
               ntrees.validate_ntree, ntrees.vertex_coloring, ntrees.pieces,
               ntrees._gph_ids, ntrees.build_gph):
        assert fn.cache_parameters()["maxsize"] is not None, fn.__name__


def test_has_vertex_matches_vertex_tuple(c5):
    p = patches.double_along_star(
        patches.base_patch(c5), ConjugateGenerator("v1", ()), 1)
    others = [ConjugateGenerator("v3", (("v2", 1),)), ConjugateGenerator("v9", ())]
    for cg in list(p.cg_vertices) + others:
        assert p.has_vertex(cg) == (cg in p.cg_vertices)


def test_conjugate_generator_hash_and_name_are_values(c5):
    """The hash and the name are computed once per instance, and neither is
    part of equality or ordering: separately built equal generators hash and
    name alike, whichever was named first."""
    a = ConjugateGenerator("v3", (("v1", 1), ("v4", -1)))
    assert a.name() == "v3^v1 v4^-1"
    b = cg(c5, "v3", "v1 v4^-1")
    assert a == b and not a < b and not b < a
    assert hash(a) == hash(b) == hash(("v3", (("v1", 1), ("v4", -1))))
    assert b.name() == a.name()
    assert ConjugateGenerator("v3", ()).name() == "v3"
    assert {a: 1}[b] == 1 and len({a, b}) == 1
    with pytest.raises(AttributeError):
        a.base = "v4"
    assert not hasattr(a, "__dict__")


def _name_clash_patch():
    """Vertices a, b, a^b and c, with c joined to the other three, doubled
    at b: the conjugate a^b of a and the base vertex a^b share a name."""
    g = graphs.graph(["a", "b", "a^b", "c"], [("c", "a"), ("c", "b"), ("c", "a^b")])
    return patches.double_along_star(patches.base_patch(g), ConjugateGenerator("b", ()), 1)


def test_shared_names_are_refused_not_merged():
    p = _name_clash_patch()
    assert p.n == 6 and len({cg.name() for cg in p.cg_vertices}) == 5
    for output in (patches.to_simplicial, patches.named_vertices):
        with pytest.raises(patches.PatchError, match="'a\\^b'"):
            output(p)
    # the search view keeps all six, ties in name broken by (base, conj)
    cgs, nbrs, _ = p.search_view
    assert [cg.name() for cg in cgs] == ["a", "a^b", "a^b", "a^b^b", "b", "c"]
    assert cgs[1:3] == (ConjugateGenerator("a", (("b", 1),)), ConjugateGenerator("a^b", ()))
    assert nbrs == [1 << 5] * 5 + [(1 << 5) - 1]


def test_cli_dot_refuses_shared_names(tmp_path, capsys):
    p = _name_clash_patch()
    f = tmp_path / "g.json"
    f.write_text(graphs.to_json(p.graph))
    assert cli.main(["patch", "--graph", str(f), "--double", "b"]) == 0
    assert len(json.loads(capsys.readouterr().out)["vertices"]) == 6
    assert cli.main(["patch", "--graph", str(f), "--double", "b", "--format", "dot"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "'a^b'" in captured.err


def _view_patches(c5, petersen, path4):
    yield from patches.doubling_family(c5, 2)
    yield from patches.doubling_family(petersen, 1)
    yield from (patches.ball_patch(path4, r) for r in (1, 2))


def test_search_view_matches_to_simplicial(c5, petersen, path4):
    """Where names are distinct, the carried view is `to_simplicial`'s
    graph: the same vertices name for name and the same neighbour masks."""
    for p in _view_patches(c5, petersen, path4):
        cgs, nbrs, fits = p.search_view
        s = patches.to_simplicial(p)
        assert tuple(cg.name() for cg in cgs) == s.vertices
        assert nbrs == graphs._masks(s.vertices, s.edges)
        assert fits == graphs._fits(nbrs)
        assert p.search_view is p.search_view


def test_degree_counts_match_to_simplicial(c5, petersen, path4):
    """A patch's degree counts, read from its masks in insertion order, are
    those of `to_simplicial`'s graph and of its permuted search view."""
    for p in _view_patches(c5, petersen, path4):
        s = patches.to_simplicial(p)
        degs = [graphs.degree(s, v) for v in s.vertices]
        assert p.degree_counts == [sum(e >= d for e in degs) for d in range(max(degs) + 1)]
        assert p.degree_counts == [m.bit_count() for m in p.search_view[2]]


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
