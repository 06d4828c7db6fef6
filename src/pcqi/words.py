"""Elements of a partially commutative group as words over the graph's
generators, with a canonical normal form.

The canonical form of an element is the lexicographically least among all
fully reduced letter sequences obtainable by swapping adjacent commuting
letters; letters compare by generator name, positive sign first.  Equal
group elements therefore have identical canonical sequences and equality
is tuple comparison.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from . import graphs
from .graphs import SimplicialGraph


class WordError(ValueError):
    pass


# a letter is (generator, sign) with sign in {+1, -1}
Letter = tuple

# Cache bounds: a long-lived process keeps at most this many entries.
NORMAL_CACHE_SIZE = 1 << 16
COSET_CACHE_SIZE = 1 << 16


@dataclass(frozen=True)
class GroupWord:
    graph: SimplicialGraph
    letters: tuple

    def __post_init__(self):
        check_letters(self.graph, self.letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if other.graph != self.graph:
            raise WordError("mixed ambient graphs")
        return GroupWord(self.graph, self.letters + other.letters)

    def inverse(self):
        return GroupWord(self.graph, inverse_letters(self.letters))


def check_letters(g: SimplicialGraph, letters):
    """WordError at the first letter with a generator outside g or a sign
    other than +1 and -1."""
    for gen, sign in letters:
        if gen not in g:
            raise WordError(f"unknown generator {gen!r}")
        if sign not in (1, -1):
            raise WordError(f"bad sign {sign!r}")


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


def format_letters(letters) -> str:
    """Letters as whitespace-separated tokens `a` / `a^-1`, the form
    `word` parses."""
    return " ".join(g if s == 1 else f"{g}^-1" for g, s in letters)


def format_word(w: GroupWord) -> str:
    return format_letters(w.letters)


def identity(g: SimplicialGraph) -> GroupWord:
    return GroupWord(g, ())


def conjugate(w: GroupWord, by: GroupWord) -> GroupWord:
    return by.inverse() * w * by


def _reduce(g, letters):
    """Freely reduce in one left-to-right pass.

    Each letter scans back through the kept letters while they commute
    with it; a vertex is not its own neighbour, so the scan stops at the
    first letter of the same generator, which is deleted when it is the
    inverse.  Deleting a letter that shuffles to the end of a reduced
    word leaves it reduced, so the kept prefix stays reduced."""
    adj = graphs.adjacency(g)
    out = []
    for gen, sign in letters:
        nbrs = adj[gen]
        i = len(out) - 1
        while i >= 0 and out[i][0] in nbrs:
            i -= 1
        if i >= 0 and out[i] == (gen, -sign):
            del out[i]
        else:
            out.append((gen, sign))
    return out


def _lex_least(g, letters):
    """Least shuffle representative of a reduced sequence, as a
    heap-ordered topological sort: each letter waits on the latest earlier
    letter of its own generator and of every generator it does not commute
    with, and the least ready letter, positive first, then earliest, goes
    next."""
    adj = graphs.adjacency(g)
    waiting = [0] * len(letters)
    after = [[] for _ in letters]
    last = {}
    for j, (gen, _) in enumerate(letters):
        for h, i in last.items():
            if h not in adj[gen]:
                waiting[j] += 1
                after[i].append(j)
        last[gen] = j
    ready = [(gen, -sign, j) for j, (gen, sign) in enumerate(letters)
             if not waiting[j]]
    heapq.heapify(ready)
    out = []
    while ready:
        _, _, i = heapq.heappop(ready)
        out.append(letters[i])
        for j in after[i]:
            waiting[j] -= 1
            if not waiting[j]:
                gen, sign = letters[j]
                heapq.heappush(ready, (gen, -sign, j))
    return out


@lru_cache(maxsize=NORMAL_CACHE_SIZE)
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


def _coset_strip(g, base, letters):
    """A shortest word of the right coset C(base)·w, w the raw `letters`,
    unshuffled.

    Strip, left to right, each letter of star(base) that commutes with
    every letter kept before it.  A deletion never makes an earlier letter
    strippable, and the stripped letters shuffle to the front, so one pass
    over the reduced word leaves a shortest word of the coset."""
    stars = g.stars
    st = stars[base]
    out, kept = [], set()
    for gen, sign in _reduce(g, letters):
        if gen in st and kept <= stars[gen]:
            continue
        out.append((gen, sign))
        kept.add(gen)
    return out


def _coset_keeps(g, base, letters):
    """Whether the coset strip of C(base)·w, w the reduced `letters`,
    deletes none of them: no letter of star(base) shuffles to the front.
    Letters in normal form pass exactly when they are the canonical word
    of their coset, since shuffling a normal form gives it back."""
    stars = g.stars
    st, kept = stars[base], set()
    for gen, _ in letters:
        if gen in st and kept <= stars[gen]:
            return False
        kept.add(gen)
    return True


@lru_cache(maxsize=COSET_CACHE_SIZE)
def _coset_letters(g, base, letters):
    """The canonical word of the right coset C(base)·w: the strip,
    shuffled to normal form."""
    return tuple(_lex_least(g, _coset_strip(g, base, letters)))


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
