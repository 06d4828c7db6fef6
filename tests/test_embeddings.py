import pytest

from pcqi import embeddings, graphs, ntrees, patches, words
from pcqi.embeddings import EmbeddingCertificate, SearchBudget
from pcqi.patches import ConjugateGenerator

from conftest import all_trees, clique, cycle, edgeless, path, random_graph, star
from oracles import (generate_ntrees, patch_certificates_reference,
                     verify_certificate_reference)
from test_patches import _name_clash_patch, _view_patches


def test_identity_found_at_depth_zero(c5):
    cert = embeddings.search_embedding(c5, c5, SearchBudget(max_depth=0))
    assert cert is not None
    assert cert.provenance == ()
    assert all(cg.conj == () for _, cg in cert.mapping)


def test_star_into_path_found():
    cert = embeddings.search_embedding(star(3), path(3), SearchBudget(max_depth=2))
    assert cert is not None and embeddings.verify_certificate(cert)
    assert any(cg.conj for _, cg in cert.mapping)     # needs a real conjugate


def test_square_into_c5_exhausted(c5):
    assert embeddings.search_embedding(cycle(4), c5, SearchBudget(max_depth=2)) is None


def test_exhausted_is_monotone(c5):
    small = embeddings.search_embedding(cycle(4), c5, SearchBudget(max_depth=1))
    big = embeddings.search_embedding(cycle(4), c5, SearchBudget(max_depth=2))
    assert small is None and big is None


def test_clique_extension_closed_form():
    """For cliques the extension graph is the graph itself: exactly the
    subgraphs of K_n embed, and nothing with a non-edge does."""
    k4 = clique(4)
    for m in (2, 3, 4):
        assert embeddings.search_embedding(clique(m), k4, SearchBudget(2)) is not None
    assert embeddings.search_embedding(edgeless(2), k4, SearchBudget(2)) is None
    assert embeddings.search_embedding(clique(5), k4, SearchBudget(2)) is None


def test_edgeless_extension_closed_form():
    """For edgeless graphs the extension graph is infinite edgeless."""
    e2 = edgeless(2)
    assert embeddings.search_embedding(edgeless(5), e2, SearchBudget(3)) is not None
    assert embeddings.search_embedding(path(2), e2, SearchBudget(2)) is None


def test_verify_rejects_tampering(c5):
    cert = embeddings.search_embedding(c5, c5, SearchBudget(max_depth=0))
    assert embeddings.verify_certificate(cert)
    m = dict(cert.mapping)
    m["v1"] = m["v2"]                                  # duplicate image
    bad = EmbeddingCertificate(c5, c5, tuple(sorted(m.items())), ())
    assert not embeddings.verify_certificate(bad)

    m2 = dict(cert.mapping)
    m2["v1"] = ConjugateGenerator("v1", (("v3", 1),))  # breaks commutation
    bad2 = EmbeddingCertificate(c5, c5, tuple(sorted(m2.items())), ())
    assert not embeddings.verify_certificate(bad2)

    # non-canonical conjugator is rejected even if the element is right
    m3 = dict(cert.mapping)
    m3["v1"] = ConjugateGenerator("v1", (("v2", 1),))  # v2 is in star(v1)
    bad3 = EmbeddingCertificate(c5, c5, tuple(sorted(m3.items())), ())
    assert not embeddings.verify_certificate(bad3)


def _found_certificates(rng, c5, wedge, path4):
    """Criterion 3 (trees into ext(P4)), criterion 5 (the wedge and C5
    both ways) and criterion 10 (weak covers of doubled random n-trees)."""
    certs = [embeddings.search_embedding(t, path4, SearchBudget(max_depth=6))
             for size in range(3, 9) for t in all_trees(size)
             if graphs.diameter(t) >= 2]
    certs += [embeddings.search_embedding(a, b, SearchBudget(max_depth=4))
              for a, b in ((wedge, c5), (c5, wedge))]
    for n in (1, 2, 3):
        for k in generate_ntrees(n, 5, rng, 4):
            d, fold = ntrees.double_ntree(k, rng.choice(sorted(k.vertices)))
            certs.append(ntrees.weak_cover_to_embedding(
                d, k, ntrees.induced_gph_map(d, k, fold)))
    assert len(certs) == 60 and None not in certs
    return certs


def _changed(cert, **images):
    m = cert.as_dict()
    m.update(images)
    return EmbeddingCertificate(cert.domain, cert.codomain,
                                tuple(sorted(m.items())), cert.provenance)


def _malformed(cod, a):
    """Images on a's base whose conjugators are not canonical or not words
    of `cod`: a non-reduced one, one with a strippable star letter in
    front, one ending in a commuting pair out of lexicographic order, one
    with a bad sign and one with an unknown generator."""
    base, conj = a.base, a.conj
    first = cod.vertices[0]
    out = [conj + ((first, 1), (first, -1)), ((first, 2),) + conj, (("nowhere", 1),) + conj]
    out += [((x, 1),) + conj for x in sorted(graphs.link(cod, base))[:1]]
    out += [conj + ((y, 1), (x, 1)) for x, y in sorted(map(sorted, cod.edges))[:1]]
    return [ConjugateGenerator(base, c) for c in out]


def _tampered(cert):
    """For each pair u < v of domain vertices: their images swapped, v's
    image repeated at u, u sent to another conjugate on v's base, and the
    malformed images of `_malformed` at u and at v together, one of them
    non-canonical; and for each u, a non-canonical conjugator for the same
    element, and each malformed image of u's."""
    cod, m = cert.codomain, cert.as_dict()
    out = []
    for i, u in enumerate(cert.domain.vertices):
        a = m[u]
        out.append(_changed(cert, **{u: ConjugateGenerator(a.base, ((a.base, 1),) + a.conj)}))
        out += [_changed(cert, **{u: bad}) for bad in _malformed(cod, a)]
        for v in cert.domain.vertices[i + 1:]:
            b = m[v]
            out.append(_changed(cert, **{u: b, v: a}))
            out.append(_changed(cert, **{u: b}))
            away = [x for x in cod.vertices if x not in graphs.star(cod, b.base)]
            if away:
                conj = b.conj_word(cod) * words.word(cod, away[0])
                out.append(_changed(cert, **{u: patches.conjugate_generator(cod, b.base, conj)}))
            bad_a, bad_b = _malformed(cod, a), _malformed(cod, b)
            out.append(_changed(cert, **{u: bad_a[0], v: bad_b[2]}))
            out.append(_changed(cert, **{u: bad_a[2], v: bad_b[0]}))
    return out


def outcome(f, cert):
    """f(cert), or the type of the exception it raises."""
    try:
        return f(cert)
    except Exception as e:
        return type(e)


def test_one_pass_verifier_matches_the_all_pairs_reference(rng, c5, wedge, path4):
    """On found certificates and on tampered copies of them, the one-pass
    verifier, cached or not, agrees with the all-pairs `commute_cg` loop."""
    verdicts = set()
    for cert in _found_certificates(rng, c5, wedge, path4):
        assert embeddings.verify_certificate(cert)
        assert verify_certificate_reference(cert)
        for bad in _tampered(cert):
            want = outcome(verify_certificate_reference, bad)
            assert outcome(embeddings.verify_certificate.__wrapped__, bad) == want, bad
            assert outcome(embeddings.verify_certificate, bad) == want, bad
            verdicts.add(want)
        u = cert.domain.vertices[0]
        unknown = _changed(cert, **{u: ConjugateGenerator("nowhere", ())})
        with pytest.raises(patches.PatchError):
            verify_certificate_reference(unknown)
        with pytest.raises(patches.PatchError):
            embeddings.verify_certificate(unknown)
    assert verdicts == {True, False, words.WordError}


def test_cached_verdict_does_not_mask_a_tampered_certificate(c5):
    """A valid certificate held in the cache leaves a tampered one with the
    same domain, codomain and provenance to be checked, and back."""
    cert = embeddings.search_embedding(c5, c5, SearchBudget(max_depth=0))
    swapped = _changed(cert, v1=cert.as_dict()["v2"], v2=cert.as_dict()["v1"])
    assert embeddings.verify_certificate(cert)
    hits = embeddings.verify_certificate.cache_info().hits
    assert embeddings.verify_certificate(cert)
    assert embeddings.verify_certificate.cache_info().hits == hits + 1
    assert not embeddings.verify_certificate(swapped)
    assert embeddings.verify_certificate(cert)


def test_hand_built_tree_certificate():
    """Any small tree maps into the extension graph of the 4-path by hand:
    leaves hang off b as conjugates of c by powers of a."""
    p4 = path(4)
    dom = star(3)
    g = lambda t: words.word(p4, t)
    mapping = {
        "c": patches.conjugate_generator(p4, "b", g("")),
        "l1": patches.conjugate_generator(p4, "a", g("")),
        "l2": patches.conjugate_generator(p4, "c", g("")),
        "l3": patches.conjugate_generator(p4, "c", g("a")),
    }
    cert = EmbeddingCertificate(dom, p4, tuple(sorted(mapping.items())), ())
    assert embeddings.verify_certificate(cert)


def test_mutual_embeddability_trees():
    t1, t2 = path(4), path(5)
    fwd, bwd = embeddings.mutual_embeddability(t1, t2, SearchBudget(max_depth=3))
    assert fwd is not None and bwd is not None


def test_wedge_and_c5_mutually_embed(c5, wedge):
    budget = SearchBudget(max_depth=4)
    cert = embeddings.search_embedding(wedge, c5, budget)
    assert cert is not None and embeddings.verify_certificate(cert)
    back = embeddings.search_embedding(c5, wedge, budget)
    assert back is not None and back.provenance == ()


def test_doubling_levels_follow_the_vertex_budget(c5, monkeypatch):
    """The cached doubling family is keyed on the patch budget: a small
    budget in force earlier in the process does not stick."""
    def levels():
        return [len(embeddings._doubling_level(c5, l, patches.vertex_budget()))
                for l in range(4)]

    budget = SearchBudget(max_depth=2)
    monkeypatch.setenv("PCQI_BUDGET_VERTICES", "8")
    assert levels() == [1, 5, 0, 0]
    assert embeddings.search_embedding(path(7), c5, budget) is None
    monkeypatch.setenv("PCQI_BUDGET_VERTICES", "5000")
    assert levels() == [1, 5, 30, 285]
    cert = embeddings.search_embedding(path(7), c5, budget)
    assert cert is not None and len(cert.provenance) == 2


def test_search_stops_at_the_first_empty_level(monkeypatch):
    """Each doubling level is built from the one before, so none past an
    empty one is built.  Under a budget of 10 vertices the levels of ext(C5)
    hold 1, 5, 5 and then 0 patches; a depth-200 search for K4 builds the
    four levels to the first empty one, once each, and then tries the
    balls."""
    monkeypatch.setenv("PCQI_BUDGET_VERTICES", "10")
    c5 = cycle(5, prefix="e")
    before = embeddings._doubling_level.cache_info().misses
    assert embeddings.search_embedding(clique(4), c5, SearchBudget(max_depth=200)) is None
    built = embeddings._doubling_level.cache_info().misses - before
    assert [len(embeddings._doubling_level(c5, l, 10)) for l in range(4)] == [1, 5, 5, 0]
    assert built == 4


def test_balls_are_kept_per_codomain(monkeypatch):
    """C4 and K3 are in no patch of ext(C5) up to depth 1, so both
    searches fall back to the radius-1 ball.  The first builds it, and the
    second, into the same codomain, builds none.  A budget too small for
    the ball ends the fallback; the refusal is not kept."""
    c5 = cycle(5, prefix="b")
    built = []
    ball_patch = patches.ball_patch

    def counting_ball_patch(g, radius):
        built.append((g, radius))
        return ball_patch(g, radius)

    monkeypatch.setattr(patches, "ball_patch", counting_ball_patch)
    budget = SearchBudget(max_depth=1)
    assert embeddings.search_embedding(cycle(4), c5, budget) is None
    assert built == [(c5, 1)]
    assert embeddings.search_embedding(clique(3), c5, budget) is None
    assert built == [(c5, 1)]
    monkeypatch.setenv("PCQI_BUDGET_VERTICES", "12")
    for _ in range(2):
        assert embeddings.search_embedding(cycle(4), c5, budget) is None
    assert built == [(c5, 1)] * 3


def test_patch_certificates_match_the_named_graph_route(rng, c5, petersen, path4):
    """The search on the carried view gives the certificates, in order, of
    searching `to_simplicial(p)` and mapping back by name, for every limit."""
    for p in _view_patches(c5, petersen, path4):
        for dom in [random_graph(rng.randrange(1, 6), rng.random(), rng, "d")
                    for _ in range(3)] + [path(4), cycle(5)]:
            for limit in (None, 0, 1, 2, 7):
                assert (embeddings.patch_certificates(dom, p, limit)
                        == patch_certificates_reference(dom, p, limit))


def test_patch_certificates_keep_vertices_that_share_a_name():
    """The patch is the star K1,5 on six conjugate generators, two of them
    named a^b.  Its own graph embeds onto it 5! ways; through names the
    two would merge into one vertex and no embedding would be found."""
    p = _name_clash_patch()
    label = {cg: f"u{k}" for k, cg in enumerate(p.cg_vertices)}
    own = graphs.graph(label.values(), [tuple(label[x] for x in e) for e in p.cg_edges])
    certs = embeddings.patch_certificates(own, p)
    assert len(certs) == 120
    assert all(embeddings.verify_certificate(cert) for cert in certs)
    assert {frozenset(cg for _, cg in cert.mapping) for cert in certs} == {p.vertex_set}


def test_degree_counts_skip_patches_that_cannot_hold_the_domain(monkeypatch):
    """K1,4 searched in ext(P4) at depth 2: a patch with fewer than one
    vertex of degree 4, or fewer than five vertices, cannot hold it.  Such
    patches are neither searched nor given a search view, so fewer searches
    run than patches are tried.  P4 has names of its own, so no other test
    has built views on its cached family."""
    p4 = graphs.graph(["w0", "w1", "w2", "w3"], [("w0", "w1"), ("w1", "w2"), ("w2", "w3")])
    tried, searched = [], []
    certificates, search = embeddings._certificates, graphs._embedding_search

    def recording_certificates(dom, plan, p, limit):
        tried.append((plan, p))
        return certificates(dom, plan, p, limit)

    def counting_search(*args, **kwargs):
        searched.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(embeddings, "_certificates", recording_certificates)
    monkeypatch.setattr(graphs, "_embedding_search", counting_search)
    cert = embeddings.search_embedding(star(4), p4, SearchBudget(max_depth=2))
    assert cert is not None and embeddings.verify_certificate(cert)
    refused = [p for plan, p in tried if not graphs._can_hold(plan, p.degree_counts)]
    assert refused and len(searched) == len(tried) - len(refused) < len(tried)
    assert not any("search_view" in vars(p) for p in refused)


def test_search_needs_no_named_patch_graph(c5, wedge, path4, monkeypatch):
    """Searching and the rigidity experiment read the carried view: with
    the named-graph route disabled they still succeed."""
    from pcqi import rigidity

    def refuse(p):
        raise AssertionError("named patch graph built during a search")

    monkeypatch.setattr(patches, "to_simplicial", refuse)
    monkeypatch.setattr(patches, "named_vertices", refuse)
    budget = SearchBudget(max_depth=4)
    for dom, cod in ((wedge, c5), (c5, wedge), (all_trees(7)[-1], path4)):
        cert = embeddings.search_embedding(dom, cod, budget)
        assert cert is not None and embeddings.verify_certificate(cert)
    rep = rigidity.rigidity_experiment(c5, 2)
    assert (rep.patch_count, rep.embeddings_found, rep.failures) == (31, 310, ())
