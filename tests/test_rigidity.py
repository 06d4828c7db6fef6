import dataclasses
import random

import pytest

from pcqi import embeddings, graphs, patches, rigidity, words
from pcqi.embeddings import EmbeddingCertificate
from pcqi.patches import conjugate_generator
from pcqi.words import GroupWord

import oracles
from conftest import cycle, path, star
from oracles import (decompose_embedding_reference, decompose_oracle,
                     rigidity_experiment_reference)
from test_embeddings import _tampered, outcome


def test_rejects_non_atomic():
    with pytest.raises(rigidity.RigidityError):
        rigidity.rigidity_experiment(cycle(4), 0)


def test_decompose_identity(c5):
    mapping = tuple(sorted((v, conjugate_generator(c5, v, words.identity(c5)))
                           for v in c5.vertices))
    cert = EmbeddingCertificate(c5, c5, mapping, ())
    dec = rigidity.decompose_embedding(cert)
    assert dec is not None
    assert dec.conjugator == ()
    assert all(v == w for v, w in dec.automorphism)


def test_decompose_conjugation(c5):
    g = words.word(c5, "v1")
    mapping = tuple(sorted((v, conjugate_generator(c5, v, g))
                           for v in c5.vertices))
    cert = EmbeddingCertificate(c5, c5, mapping, ())
    assert embeddings.verify_certificate(cert)
    dec = rigidity.decompose_embedding(cert)
    assert dec is not None
    assert all(v == w for v, w in dec.automorphism)
    # g is recovered up to the centre, which is trivial: exactly v1
    assert dec.conjugator == (("v1", 1),)


def test_decompose_reflection_with_conjugation(c5):
    refl = {"v1": "v1", "v2": "v5", "v3": "v4", "v4": "v3", "v5": "v2"}
    g = words.word(c5, "v3 v1^-1")
    mapping = tuple(sorted((v, conjugate_generator(c5, refl[v], g))
                           for v in c5.vertices))
    cert = EmbeddingCertificate(c5, c5, mapping, ())
    assert embeddings.verify_certificate(cert)
    dec = rigidity.decompose_embedding(cert)
    assert dec is not None
    assert dict(dec.automorphism) == refl


def test_decompose_rejects_non_isomorphic_domain():
    """The domain has only the edge ab of the codomain P3 a-b-c, so the
    identity images are no embedding: sigma must map codomain edges onto
    domain edges, not domain edges into the domain."""
    p3 = graphs.graph("abc", [("a", "b"), ("b", "c")])
    dom = graphs.graph("abc", [("a", "b")])
    mapping = tuple((v, conjugate_generator(p3, v, words.identity(p3)))
                    for v in p3.vertices)
    cert = EmbeddingCertificate(dom, p3, mapping, ())
    assert not embeddings.verify_certificate(cert)
    assert rigidity.decompose_embedding(cert) is None
    assert decompose_oracle(cert, 3) is None


def test_experiment_depth0_counts_automorphisms(c5, petersen):
    rep = rigidity.rigidity_experiment(c5, 0)
    assert rep.embeddings_found == 10                    # |Aut(C5)| = 10
    assert rep.failures == ()
    rep = rigidity.rigidity_experiment(petersen, 0)
    assert rep.embeddings_found == 120                   # |Aut(Petersen)|
    assert rep.failures == ()


def test_experiment_depth0_cycles_under_relabelling():
    rng = random.Random(14)
    for n in range(9, 15):
        for _ in range(5):
            names = [f"v{i}" for i in range(1, n + 1)]
            rng.shuffle(names)
            g = graphs.graph(names, [(names[i], names[(i + 1) % n]) for i in range(n)])
            rep = rigidity.rigidity_experiment(g, 0)
            assert rep.embeddings_found == 2 * n                 # |Aut(Cn)|
            assert rep.failures == ()


def test_experiment_depth1_c5(c5):
    rep = rigidity.rigidity_experiment(c5, 1)
    assert rep.patch_count > 1
    assert rep.embeddings_found > 10
    assert rep.failures == ()
    assert len(rep.decompositions) == rep.embeddings_found
    j = rep.to_json()
    assert j["failures"] == 0 and j["embeddings"] == rep.embeddings_found


def test_experiment_nontrivial_conjugators_appear(c5):
    rep = rigidity.rigidity_experiment(c5, 1)
    assert any(d.conjugator for d in rep.decompositions)


def _certificates(g, depth):
    """Every distinct certificate the rigidity experiment decomposes."""
    out, seen = [], set()
    for p in patches.doubling_family(g, depth):
        for cert in embeddings.patch_certificates(g, p):
            if cert.mapping not in seen:
                seen.add(cert.mapping)
                out.append(cert)
    return out


def _conjugation_cert(g, sigma, conj):
    """The certificate of sigma followed by conjugation by `conj`."""
    mapping = tuple(sorted((sigma[v], conjugate_generator(g, v, conj))
                           for v in g.vertices))
    return EmbeddingCertificate(g, g, mapping, ())


@pytest.mark.parametrize("name,depth", [("c5", 2), ("c6", 1), ("petersen", 0)])
def test_decompose_matches_oracle(name, depth, c5, petersen):
    g = {"c5": c5, "c6": cycle(6), "petersen": petersen}[name]
    certs = _certificates(g, depth)
    assert certs
    for cert in certs:
        dec = rigidity.decompose_embedding(cert)
        assert dec is not None
        assert dec == decompose_oracle(cert, 3)


def test_decompose_rejects_shuffled_images(c5, petersen):
    rng = random.Random(11)
    checked = 0
    for g, depth in ((c5, 1), (petersen, 0)):
        auts = graphs.automorphisms(g)
        for cert in _certificates(g, depth)[:40]:
            verts = [v for v, _ in cert.mapping]
            images = [cg for _, cg in cert.mapping]
            rng.shuffle(images)
            sigma = {cg.base: v for v, cg in zip(verts, images)}
            if sigma in auts:
                continue
            bad = EmbeddingCertificate(g, g, tuple(zip(verts, images)), ())
            assert rigidity.decompose_embedding(bad) is None
            assert decompose_oracle(bad, 3) is None
            checked += 1
    assert checked > 40


def test_decompose_rejects_inconsistent_conjugators(c5):
    """sigma is the identity, but only v1's image is conjugated, by v3:
    no single g gives every image, so the coset check must refuse."""
    identity = words.identity(c5)
    mapping = tuple(sorted(
        (v, conjugate_generator(c5, v, words.word(c5, "v3") if v == "v1" else identity))
        for v in c5.vertices))
    cert = EmbeddingCertificate(c5, c5, mapping, ())
    assert rigidity.decompose_embedding(cert) is None
    assert decompose_oracle(cert, 3) is None


def test_decompose_recovers_random_conjugations(c5, petersen):
    rng = random.Random(20261018)
    for g in (c5, cycle(6), cycle(7), petersen):
        auts = graphs.automorphisms(g)
        for _ in range(40):
            conj = GroupWord(g, tuple(
                (rng.choice(g.vertices), rng.choice((1, -1)))
                for _ in range(rng.randrange(13))))
            sigma = rng.choice(auts)
            cert = _conjugation_cert(g, sigma, conj)
            assert embeddings.verify_certificate(cert)
            dec = rigidity.decompose_embedding(cert)
            assert dec is not None
            assert dec.conjugator == words.normal_form(conj).letters
            assert dict(dec.automorphism) == sigma


def test_decompose_on_letters_matches_the_word_route(c5, petersen):
    """On found certificates and on tampered copies of them, malformed
    conjugators included, `decompose_embedding` gives the decomposition,
    None, or the type of exception of the version that ran every join and
    coset check through `GroupWord`."""
    outcomes = set()
    for g, depth in ((c5, 1), (cycle(6), 1), (petersen, 0)):
        for cert in _certificates(g, depth)[:12]:
            assert rigidity.decompose_embedding(cert) == decompose_embedding_reference(cert)
            for bad in _tampered(cert):
                want = outcome(decompose_embedding_reference, bad)
                assert outcome(rigidity.decompose_embedding, bad) == want, bad
                outcomes.add(want if isinstance(want, type) else want is None)
    assert outcomes == {True, KeyError, words.WordError}


def test_decompose_long_conjugator_beyond_radius(c5):
    """A conjugator outside the radius-3 centralizer ball of v1: the
    ball search misses it, the solved decomposition recovers it."""
    conj = words.word(c5, "v2^-1 v4^-1 v1^-1 v5^-3")
    identity = {v: v for v in c5.vertices}
    cert = _conjugation_cert(c5, identity, conj)
    assert decompose_oracle(cert, 3) is None
    dec = rigidity.decompose_embedding(cert)
    assert dec is not None
    assert dec.conjugator == words.normal_form(conj).letters
    assert dict(dec.automorphism) == identity


def _relabel(g, seed, names=None):
    """g with its vertices renamed by a random permutation of `names`, by
    default of its own vertex names."""
    perm = list(names or g.vertices)
    random.Random(seed).shuffle(perm)
    m = dict(zip(g.vertices, perm))
    return graphs.graph(perm, [(m[a], m[b]) for a, b in map(tuple, g.edges)])


@pytest.mark.parametrize("name,depth", [("c5", 2), ("c6", 1), ("c7", 1), ("petersen", 1)])
def test_experiment_matches_reference(name, depth, c5, petersen):
    """Decomposing once per conjugate copy gives the report of verifying
    and decomposing every embedding on its own: patch and embedding
    counts, decompositions in order, and failures."""
    g = {"c5": c5, "c6": cycle(6), "c7": cycle(7), "petersen": petersen}[name]
    # names that are prefixes of each other ("a", "a0", ...) order a copy's
    # images ("a^...", "a0") otherwise than their bases
    prefixed = ["a" + "0" * k for k in range(g.n)]
    for h in (_relabel(g, 1), _relabel(g, 2), _relabel(g, 3, prefixed)):
        assert rigidity.rigidity_experiment(h, depth) == rigidity_experiment_reference(h, depth)


def _c6_with_chord():
    vs = [f"v{i}" for i in range(6)]
    return graphs.graph(vs, [(vs[i], vs[(i + 1) % 6]) for i in range(6)] + [("v0", "v3")])


NEGATIVE_CONTROLS = {
    "p4": (lambda: path(4), {1: (5, 18, 8), 2: (20, 134, 94)}),
    "c4": (lambda: cycle(4), {1: (5, 72, 32), 2: (17, 472, 336)}),
    "k13": (lambda: star(3), {1: (4, 168, 144), 2: (16, 3984, 3888)}),
    "c6_chord": (_c6_with_chord, {1: (7, 76, 48), 2: (46, 1080, 896)}),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
@pytest.mark.parametrize("depth", [1, 2])
def test_experiment_reports_failures_on_non_atomic_graphs(name, depth, monkeypatch):
    """Negative controls for the failure path: with the atomic check
    bypassed, P4, C4, the star K1,3 and C6 with a chord have embeddings into
    their extension graphs that are no automorphism followed by a
    conjugation.  The counts (patches, embeddings, failures) are pinned, and
    the report, failures included and in order, is the reference's."""
    monkeypatch.setattr(graphs, "is_atomic", lambda g: (True, None))
    build, counts = NEGATIVE_CONTROLS[name]
    for h in (build(), _relabel(build(), 3)):
        rep = rigidity.rigidity_experiment(h, depth)
        assert (rep.patch_count, rep.embeddings_found, len(rep.failures)) == counts[depth]
        assert rep == rigidity_experiment_reference(h, depth)


def test_experiment_verifies_non_automorphic_copy(c5, monkeypatch):
    """A copy whose base map is not an automorphism does not verify.  The
    experiment verifies each copy before expanding it, so a copy search
    that returns one raises, as the reference does when such a certificate
    is among those it decomposes."""
    auts = graphs.automorphisms(c5)
    rng = random.Random(5)

    def shuffled(verts, images):
        images = list(images)
        while True:
            rng.shuffle(images)
            if {cg.base: v for v, cg in zip(verts, images)} not in auts:
                return images

    genuine_copies = rigidity._patch_copies

    def with_shuffled_copy(plan, p, *cut):
        cgs, copies = genuine_copies(plan, p, *cut)
        images = shuffled(plan.order, [cgs[k] for k in copies[0]])
        return cgs, [tuple(cgs.index(cg) for cg in images)] + copies[1:]

    genuine_certificates = oracles.patch_certificates_reference

    def with_shuffled_certificate(dom, p, limit=None):
        certs = genuine_certificates(dom, p, limit)
        verts = [v for v, _ in certs[0].mapping]
        images = shuffled(verts, [cg for _, cg in certs[0].mapping])
        return certs[:1] + [EmbeddingCertificate(dom, p.graph, tuple(zip(verts, images)),
                                                 p.provenance)]

    monkeypatch.setattr(rigidity, "_patch_copies", with_shuffled_copy)
    monkeypatch.setattr(oracles, "patch_certificates_reference", with_shuffled_certificate)
    for experiment in (rigidity.rigidity_experiment, rigidity_experiment_reference):
        with pytest.raises(rigidity.RigidityError, match="unverifiable"):
            experiment(c5, 0)


def test_patch_copies_skip_a_patch_that_cannot_hold_the_domain(petersen, monkeypatch):
    """Petersen's ten vertices of degree 3 do not fit in a patch of ext(C5)
    at depth 1, so its copies there are none and the patch is not searched;
    C5 itself fits, and is searched.  Neither builds a search view: the
    copy search reads the carried masks."""
    searched = []
    search = graphs._embedding_search

    def counting_search(*args, **kwargs):
        searched.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(graphs, "_embedding_search", counting_search)
    c5 = cycle(5, prefix="y")
    for g, fits in ((petersen, False), (c5, True)):
        plan = graphs._domain_plan(g, graphs._symmetry_conditions(g, graphs.automorphisms(g)))
        for p in patches.doubling_family(c5, 1):
            searched.clear()
            cgs, copies = rigidity._patch_copies(plan, p)
            assert bool(searched) == fits == bool(copies)
            assert "search_view" not in vars(p)
            if not fits:
                assert cgs == ()


def test_experiment_petersen_depth2_counts(petersen):
    rep = rigidity.rigidity_experiment(petersen, 2)
    assert (rep.patch_count, rep.embeddings_found, rep.failures) == (146, 17520, ())


def test_experiment_petersen_depth3_counts(petersen):
    """The report keeps one record per conjugate copy: 463,920 embeddings
    come from 3,866 copies, each expanded by the 120 automorphisms."""
    rep = rigidity.rigidity_experiment(petersen, 3)
    assert (rep.patch_count, rep.embeddings_found, rep.failures) == (3386, 463920, ())
    assert rep.decompositions.copy_count == 3866
    assert len(rep.decompositions) == 463920


def test_decompositions_read_as_the_tuple(c5):
    """The stored decompositions have the length, items, order, equality
    and hash of the reference's tuple, whichever side is compared."""
    rep = rigidity.rigidity_experiment(c5, 2)
    ref = rigidity_experiment_reference(c5, 2).decompositions
    decs = rep.decompositions
    assert type(ref) is tuple and type(decs) is not tuple
    assert tuple(decs) == ref and len(decs) == len(ref) == 310
    assert decs == ref and ref == decs and not decs != ref
    assert hash(decs) == hash(ref)
    assert [decs[i] for i in range(len(decs))] == list(ref)
    assert [decs[i] for i in range(-1, -len(decs) - 1, -1)] == list(reversed(ref))
    assert decs[3:40:7] == ref[3:40:7] and decs[::-1] == ref[::-1]
    for i in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            decs[i]
    assert decs != list(ref) and decs != ref[:-1] and decs != ref[1:] + ref[:1]
    assert rep == dataclasses.replace(rep, decompositions=ref)
    assert hash(rep) == hash(dataclasses.replace(rep, decompositions=ref))
    assert repr(decs) == repr(ref)


@pytest.mark.parametrize("name,depth", [("c5", 2), ("petersen", 1)])
def test_experiment_decomposes_verified_certificates(name, depth, c5, petersen):
    """Each decomposition of the report rebuilds the certificate found at
    its position, and that certificate verifies."""
    g = {"c5": c5, "petersen": petersen}[name]
    certs = _certificates(g, depth)
    rep = rigidity.rigidity_experiment(g, depth)
    assert len(rep.decompositions) == len(certs)
    for cert, dec in zip(certs, rep.decompositions):
        rebuilt = _conjugation_cert(g, dict(dec.automorphism), GroupWord(g, dec.conjugator))
        assert rebuilt.mapping == cert.mapping
        assert embeddings.verify_certificate(cert)
