import pytest
from hypothesis import given, settings, strategies as st

from pcqi import graphs, rigidity, words
from pcqi.words import GroupWord

from conftest import clique, cycle, edgeless, path, random_graph
from oracles import (coset_letters_reference, equal_oracle, join_reference,
                     normal_letters_reference, reduce_reference, reduced_class)


P3 = path(3)


def w(text, g=P3):
    return words.word(g, text)


def test_parsing_and_formatting():
    assert w("a b^-1 c^2").letters == (("a", 1), ("b", -1), ("c", 1), ("c", 1))
    assert words.format_word(w("a b^-1")) == "a b^-1"
    assert words.word(P3, letters=[("a", 1)]).letters == (("a", 1),)
    with pytest.raises(words.WordError):
        w("z")


def test_normal_form_examples():
    assert words.format_word(words.normal_form(w("a b a^-1"))) == "b"
    assert words.is_trivial(w("a b a^-1 b^-1"))           # a, b adjacent
    assert not words.is_trivial(w("a c a^-1 c^-1"))       # a, c are not
    assert words.normal_form(w("b a")).letters == (("a", 1), ("b", 1))
    assert words.normal_form(w("c a")).letters == (("c", 1), ("a", 1))
    assert words.equal(w("a b a^-1"), w("b"))


def test_group_operations():
    u = w("a b")
    assert u.inverse().letters == (("b", -1), ("a", -1))
    assert words.is_trivial(u * u.inverse())
    assert words.equal(words.conjugate(w("b"), w("a")), w("a^-1 b a"))
    with pytest.raises(words.WordError):
        u * words.word(clique(2), "x0")


def test_commute_and_support(c5):
    g = c5
    assert words.commute(words.word(g, "v1"), words.word(g, "v2"))
    assert not words.commute(words.word(g, "v1"), words.word(g, "v3"))
    assert words.support(w("a b a^-1 c")) == {"b", "c"}
    assert words.supported_in(w("a b a^-1"), {"b"})


def _random_letters(rng, g, max_len):
    n = rng.randrange(max_len + 1)
    return tuple((rng.choice(g.vertices), rng.choice((1, -1))) for _ in range(n))


def test_equality_matches_shuffle_cancel_oracle(rng, c5):
    gs = [P3, path(5), c5, clique(4), edgeless(3)]
    checked = 0
    for g in gs:
        for _ in range(120):
            u = _random_letters(rng, g, 6)
            v = _random_letters(rng, g, 6)
            uw, vw = GroupWord(g, u), GroupWord(g, v)
            assert words.equal(uw, vw) == equal_oracle(g, u, v)
            checked += 1
            # a definitely-equal pair: conjugate-shuffled variant
            z = _random_letters(rng, g, 2)
            zw = GroupWord(g, z)
            assert words.equal(uw, zw * uw * zw.inverse()) == \
                equal_oracle(g, u, z + u + zw.inverse().letters)
            checked += 1
    assert checked == len(gs) * 240


def test_normal_form_is_canonical_in_reduced_class(rng):
    for _ in range(80):
        letters = _random_letters(rng, P3, 6)
        nf = words.normal_form(GroupWord(P3, letters)).letters
        cls = reduced_class(P3, letters)
        assert nf in cls
        # least shuffle representative under the letter order used by
        # the package: generator name first, positive sign before negative
        key = lambda ls: tuple((g, 0 if s == 1 else 1) for g, s in ls)
        assert key(nf) == min(map(key, cls))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))),
                max_size=8))
def test_normal_form_idempotent_and_invariant(letters):
    u = GroupWord(P3, tuple(letters))
    nf = words.normal_form(u)
    assert words.normal_form(nf) == nf
    assert words.equal(u, nf)
    assert words.is_trivial(u * u.inverse())


def test_coset_canonical_examples():
    assert words.coset_canonical("a", w("a c")).letters == (("c", 1),)
    assert words.coset_canonical("a", w("b")).letters == ()
    assert words.coset_canonical("b", w("a c")).letters == ()
    assert words.coset_canonical("a", w("a^3 b c")).letters == (("c", 1),)


def test_coset_canonical_properties(rng, c5):
    """The representative lies in the same right coset of the centralizer
    and is idempotent; equal cosets canonicalize identically."""
    for g in (P3, c5):
        for _ in range(60):
            v = rng.choice(g.vertices)
            u = GroupWord(g, _random_letters(rng, g, 5))
            rep = words.coset_canonical(v, u)
            assert words.supported_in(u * rep.inverse(), graphs.star(g, v))
            assert words.coset_canonical(v, rep) == rep
            s = GroupWord(g, tuple(
                (rng.choice(sorted(graphs.star(g, v))), rng.choice((1, -1)))
                for _ in range(3)))
            assert words.coset_canonical(v, s * u) == rep


def _kernel_graphs(rng, c5, petersen, count):
    """C5, Petersen and random graphs on 1-7 vertices at every density."""
    gs = [c5, petersen]
    while len(gs) < count:
        gs.append(random_graph(rng.randrange(1, 8), rng.random(), rng))
    return gs


def test_one_pass_kernel_matches_reference(rng, c5, petersen):
    """Normal form, coset representative and reduced support agree with
    the restart-until-nothing-changes kernel they replaced."""
    checked = 0
    for g in _kernel_graphs(rng, c5, petersen, 250):
        for _ in range(40):
            letters = _random_letters(rng, g, 40)
            base = rng.choice(g.vertices)
            assert words._normal_letters(g, letters) == \
                normal_letters_reference(g, letters), (g, letters)
            assert words._coset_letters(g, base, letters) == \
                coset_letters_reference(g, base, letters), (g, base, letters)
            assert words.reduced_support(g, letters) == \
                {gen for gen, _ in reduce_reference(g, letters)}
            checked += 1
    assert checked == 10_000


def test_join_matches_reference(rng, c5, petersen):
    """The suffix-order join by one cancellation pass agrees with peeling
    common last letters, on the coset representatives of one element (the
    decomposition's case) and on unrelated reduced pairs."""
    for g in _kernel_graphs(rng, c5, petersen, 100):
        elem = GroupWord(g, _random_letters(rng, g, 20))
        reps = [words.coset_canonical(v, elem).letters for v in g.vertices]
        acc = ()
        for rep in reps:
            assert rigidity._join(g, acc, rep) == join_reference(g, acc, rep)
            acc = rigidity._join(g, acc, rep)
        for _ in range(20):
            j, w = (words.normal_form(GroupWord(g, _random_letters(rng, g, 20))).letters
                    for _ in range(2))
            assert rigidity._join(g, j, w) == join_reference(g, j, w), (g, j, w)


def test_power_endomorphism():
    u = w("a b^-1")
    assert words.power_endomorphism(3, u).letters == \
        (("a", 1),) * 3 + (("b", -1),) * 3
    assert words.power_endomorphism(1, u) == u
    with pytest.raises(words.WordError):
        words.power_endomorphism(0, u)
