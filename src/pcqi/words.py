"""Elements of a partially commutative group as words over the graph's
generators, with a canonical normal form.

The canonical form of an element is the lexicographically least among all
fully reduced letter sequences obtainable by swapping adjacent commuting
letters; letters compare by generator name, positive sign first.  Equal
group elements therefore have identical canonical sequences and equality
is tuple comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import graphs
from .graphs import SimplicialGraph


class WordError(ValueError):
    pass


# a letter is (generator, sign) with sign in {+1, -1}
Letter = tuple


@dataclass(frozen=True)
class GroupWord:
    graph: SimplicialGraph
    letters: tuple

    def __post_init__(self):
        for gen, sign in self.letters:
            if gen not in self.graph:
                raise WordError(f"unknown generator {gen!r}")
            if sign not in (1, -1):
                raise WordError(f"bad sign {sign!r}")

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if other.graph != self.graph:
            raise WordError("mixed ambient graphs")
        return GroupWord(self.graph, self.letters + other.letters)

    def inverse(self):
        return GroupWord(self.graph, inverse_letters(self.letters))


def inverse_letters(letters) -> tuple:
    return tuple((g, -s) for g, s in reversed(letters))


def word(g: SimplicialGraph, text: str = "", letters=None) -> GroupWord:
    """Parse whitespace-separated tokens `a` / `a^-1` (also `a^3`)."""
    if letters is not None:
        return GroupWord(g, tuple(letters))
    out = []
    for tok in text.split():
        if "^" in tok:
            gen, exp = tok.split("^", 1)
            k = int(exp)
        else:
            gen, k = tok, 1
        out.extend([(gen, 1 if k > 0 else -1)] * abs(k))
    return GroupWord(g, tuple(out))


def format_word(w: GroupWord) -> str:
    return " ".join(g if s == 1 else f"{g}^-1" for g, s in w.letters)


def identity(g: SimplicialGraph) -> GroupWord:
    return GroupWord(g, ())


def conjugate(w: GroupWord, by: GroupWord) -> GroupWord:
    return by.inverse() * w * by


@lru_cache(maxsize=None)
def _commuting(g: SimplicialGraph):
    pairs = set()
    for v in g.vertices:
        pairs.add((v, v))
    for e in g.edges:
        a, b = sorted(e)
        pairs.add((a, b))
        pairs.add((b, a))
    return pairs


def _reduce(g, letters):
    """Delete cancelling pairs reachable by commuting swaps, to fixpoint."""
    com = _commuting(g)
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        n = len(letters)
        for i in range(n):
            gi, si = letters[i]
            for j in range(i + 1, n):
                gj, sj = letters[j]
                if gj == gi:
                    if sj == -si:
                        del letters[j]
                        del letters[i]
                        changed = True
                    break
                if (gj, gi) not in com:
                    break
            if changed:
                break
    return letters


def _lex_least(g, letters):
    """Least shuffle representative of a reduced sequence."""
    com = _commuting(g)
    rest = list(letters)
    out = []
    while rest:
        best = None
        for i, (gen, sign) in enumerate(rest):
            if any((rest[k][0], gen) not in com for k in range(i)):
                continue
            key = (gen, 0 if sign == 1 else 1)
            if best is None or key < best[0]:
                best = (key, i)
        i = best[1]
        out.append(rest.pop(i))
    return out


@lru_cache(maxsize=None)
def _normal_letters(g, letters):
    return tuple(_lex_least(g, _reduce(g, letters)))


def normal_form(w: GroupWord) -> GroupWord:
    """Canonical representative of w's group element; idempotent."""
    return GroupWord(w.graph, _normal_letters(w.graph, w.letters))


def is_trivial(w: GroupWord) -> bool:
    return not _normal_letters(w.graph, w.letters)


def equal(u: GroupWord, w: GroupWord) -> bool:
    if u.graph != w.graph:
        raise WordError("mixed ambient graphs")
    return _normal_letters(u.graph, u.letters) == _normal_letters(w.graph, w.letters)


def commute(u: GroupWord, w: GroupWord) -> bool:
    """Whether [u, w] = 1, i.e. the extension-graph edge test."""
    return is_trivial(u.inverse() * w.inverse() * u * w)


def reduced_support(g: SimplicialGraph, letters) -> frozenset:
    """Generators of a raw letter sequence left after cancellation.

    Every reduced word for an element uses the same letters, so this is
    the element's support; the shuffle to normal form is not needed."""
    return frozenset(gen for gen, _ in _reduce(g, letters))


def support(w: GroupWord):
    return reduced_support(w.graph, w.letters)


def supported_in(w: GroupWord, verts) -> bool:
    """Membership in the parabolic subgroup generated by `verts`."""
    return support(w) <= frozenset(verts)


@lru_cache(maxsize=None)
def _coset_letters(g, base, letters):
    st = graphs.star(g, base)
    com = _commuting(g)
    cur = _reduce(g, letters)
    stripped = True
    while stripped:
        stripped = False
        for i, (gen, _) in enumerate(cur):
            if gen in st and all((cur[k][0], gen) in com for k in range(i)):
                del cur[i]
                cur = _reduce(g, cur)
                stripped = True
                break
    return tuple(_lex_least(g, cur))


def coset_canonical(v: str, w: GroupWord) -> GroupWord:
    """Canonical representative of the right coset C(v)·w, where the
    centralizer C(v) is the parabolic subgroup on the closed star of v.

    Computed by greedily deleting letters that shuffle to the front and
    lie in star(v); relies on convexity of parabolic subgroups, which the
    sampled-coset property tests guard.
    """
    if v not in w.graph:
        raise WordError(f"unknown vertex {v!r}")
    return GroupWord(w.graph, _coset_letters(w.graph, v, w.letters))


def power_endomorphism(n: int, w: GroupWord) -> GroupWord:
    """Apply the generator substitution v -> v^n letter-wise."""
    if n < 1:
        raise WordError("exponent must be positive")
    out = []
    for gen, sign in w.letters:
        out.extend([(gen, sign)] * n)
    return GroupWord(w.graph, tuple(out))
