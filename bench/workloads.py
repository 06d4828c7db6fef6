"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``__init__`` (timed as set-up)
and then yields items from ``items()``.  An item is one user-level call into
pcqi together with the check of its output; the worker times each item and
counts the ones whose check fails.  Checks that need the whole batch (family
totals) report to ``problems``.

The seed relabels every base graph by a permutation of its vertex names,
drawn anew for each batch of a run from the seed and the batch number.
Normal forms depend on generator order, and the backtracking searches match
vertices in name order, so the words, the patches and the search costs
differ between labellings, while every count checked below does not.  A run
reports medians over its batches, so it averages over several labellings.
Seed 0 keeps the names of the acceptance-test fixtures in every batch.
"""

from __future__ import annotations

import itertools
import random

from pcqi import (bisim, classify, embeddings, graphs, ntrees, patches,
                  rigidity, words)

# Marks an expectation that the benchmark's own tests corrupt on purpose; it
# equals nothing, so the check that reads it fails.
CORRUPTED = object()


class Workload:
    name = ""

    def __init__(self, seed, batch):
        self.rng = random.Random(f"{seed}:{batch}")
        self.seed = seed
        self.expected = {}
        self.checks = 0         # checks made outside the items
        self.problems = []      # their failures

    def relabel(self, names):
        """Position -> name: a permutation drawn from the seed and the batch
        number, or the identity at seed 0."""
        names = list(names)
        if self.seed:
            self.rng.shuffle(names)
        return names

    def corrupt(self):
        self.expected[next(iter(self.expected))] = CORRUPTED

    def items(self):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# base graphs, built from their shape and a seeded naming

def _graph(names, edges):
    return graphs.graph(names, [(names[a], names[b]) for a, b in edges])


def cycle(w, n):
    names = w.relabel(f"v{i}" for i in range(1, n + 1))
    return _graph(names, [(i, (i + 1) % n) for i in range(n)])


def petersen(w):
    names = w.relabel([f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)])
    return _graph(names, [(i, (i + 1) % 5) for i in range(5)]
                  + [(i, i + 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def heawood(w):
    names = w.relabel(f"h{i:02d}" for i in range(14))
    return _graph(names, [(i, (i + 1) % 14) for i in range(14)]
                  + [(i, (i + 5) % 14) for i in range(0, 14, 2)])


def path(w, n):
    names = w.relabel(chr(ord("a") + i) for i in range(n))
    return _graph(names, [(i, i + 1) for i in range(n - 1)])


def wedge(w):
    """Two 5-cycles sharing one vertex, as ``classify.wedge_of_c5s``."""
    names = w.relabel(["p"] + [f"a{i}" for i in range(1, 5)]
                      + [f"b{i}" for i in range(1, 5)])
    cyc = lambda q: [(0, q), (q, q + 1), (q + 1, q + 2), (q + 2, q + 3), (q + 3, 0)]
    return _graph(names, cyc(1) + cyc(5))


def _tree_code(adj, root, parent=None):
    return "(" + "".join(sorted(_tree_code(adj, c, root)
                                for c in adj[root] if c != parent)) + ")"


def _tree_canon(edges, n):
    """AHU code of an unlabelled tree, rooted at each centre, least wins."""
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    leaves, left = [v for v in adj if len(adj[v]) <= 1], n
    deg = {v: len(adj[v]) for v in adj}
    while left > 2:
        left -= len(leaves)
        nxt = []
        for v in leaves:
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        leaves = nxt
    return min(_tree_code(adj, c) for c in leaves)


def tree_shapes(n):
    """All trees on n vertices up to isomorphism, as edge lists on 0..n-1."""
    shapes = {(): []} if n == 1 else {}
    if n > 1:
        for edges in tree_shapes(n - 1):
            for v in range(n - 1):
                grown = edges + [(v, n - 1)]
                shapes.setdefault(_tree_canon(grown, n), grown)
    return list(shapes.values())


# ---------------------------------------------------------------------------
# doubling_girth

class DoublingGirth(Workload):
    """Every patch reachable by exponent-1 doublings, with its girth.

    One item is one ``double_along_star`` call; a new patch is also turned
    into a plain graph and must have girth at least 5.  The per-family
    totals (patches, summed vertices, summed edges) must match.  C5 at depth
    3 and Petersen at depth 2 reach 40-vertex patches, and Heawood at depth 1
    doubles a 14-vertex base; the larger families of criterion 4 (C6 at
    depth 3, Heawood at depth 2) would make one batch longer than a run."""

    name = "doubling_girth"

    def __init__(self, seed, batch):
        super().__init__(seed, batch)
        plan = [("C5", cycle(self, 5), 3, (221, 3730, 5120)),
                ("Petersen", petersen(self), 2, (146, 3920, 7140)),
                ("Heawood", heawood(self), 1, (15, 350, 567))]
        self.families = []
        for name, g, depth, totals in plan:
            self.expected[name] = totals
            self.families.append((name, g, depth))

    def items(self):
        for name, g, depth in self.families:
            family = []
            yield f"{name}/base", lambda: self._admit(family, set(), patches.base_patch(g))
            seen = {frozenset(family[0].cg_vertices)}
            frontier = list(family)
            for level in range(1, depth + 1):
                nxt = []
                for p in frontier:
                    for i, center in enumerate(p.cg_vertices):
                        if ("double", center, 1) in p.provenance:
                            continue
                        yield (f"{name}/{level}/{len(family)}/{i}",
                               lambda p=p, c=center: self._admit(
                                   nxt, seen, patches.double_along_star(p, c, 1)))
                family.extend(nxt)
                frontier = nxt
            self.checks += 1
            totals = (len(family), sum(p.n for p in family),
                      sum(len(p.cg_edges) for p in family))
            if totals != self.expected[name]:
                self.problems.append(f"{name}: totals {totals}")

    @staticmethod
    def _admit(out, seen, q):
        key = frozenset(q.cg_vertices)
        if key in seen:
            return True
        seen.add(key)
        out.append(q)
        gr = graphs.girth(patches.to_simplicial(q))
        return gr is not None and gr >= 5


# ---------------------------------------------------------------------------
# embed_search

class EmbedSearch(Workload):
    """``search_embedding`` calls, each with a known outcome.

    Every tree of 3 to 8 vertices embeds in ext(P4), and each is found
    within depth 2 (a doubled patch or the radius-2 ball), so depth 3 finds
    them all while criterion 3's depth 6 would triple the batch.  The wedge of
    two 5-cycles and C5 embed in each other's extension graph.
    ext(C5) has girth 5 and no triangle, and ext(P4) is a tree, so C4 -> C5,
    K3 -> C5 and C5 -> P4 are certain misses that walk every patch to depth
    1 and the radius-1 ball.  Every certificate must pass
    ``verify_certificate``.

    The seed relabels the base graphs P4, C5 and the wedge; the trees, C4 and
    K3 keep fixed names.  ``find_induced_embeddings`` matches domain vertices
    in name order, and with relabelled trees one labelling of an 8-vertex
    tree cost 12x another, which no run of a few batches could average out."""

    name = "embed_search"

    def __init__(self, seed, batch):
        super().__init__(seed, batch)
        p4, c5, wdg = path(self, 4), cycle(self, 5), wedge(self)
        self.cases = []
        for n in range(3, 9):
            for k, edges in enumerate(tree_shapes(n)):
                t = _graph([f"t{i}" for i in range(n)], edges)
                self.cases.append((f"tree{n}.{k}", t, p4, 3, True))
        c4 = _graph(["q1", "q2", "q3", "q4"], [(0, 1), (1, 2), (2, 3), (3, 0)])
        k3 = _graph(["x0", "x1", "x2"], [(0, 1), (0, 2), (1, 2)])
        misses = [("C4-C5", c4, c5), ("K3-C5", k3, c5), ("C5-P4", c5, p4)]
        self.cases += [("wedge-C5", wdg, c5, 4, True), ("C5-wedge", c5, wdg, 4, True)]
        self.cases += [(name, d, c, 1, False) for name, d, c in misses]
        for case in self.cases:
            self.expected[case[0]] = case[4]

    def items(self):
        for name, dom, cod, depth, _ in self.cases:
            yield name, lambda dom=dom, cod=cod, depth=depth, name=name: self._search(
                name, dom, cod, depth)

    def _search(self, name, dom, cod, depth):
        cert = embeddings.search_embedding(dom, cod, embeddings.SearchBudget(max_depth=depth))
        if cert is not None and not embeddings.verify_certificate(cert):
            return False
        return (cert is not None) == self.expected[name]


# ---------------------------------------------------------------------------
# rigidity

class Rigidity(Workload):
    """``rigidity_experiment`` on atomic graphs at small doubling depths.

    Every embedding must decompose as a conjugation and an automorphism
    (zero failures), and the patch and embedding counts must match.  Cycles
    stop at C8: from C9 on, ``find_induced_embeddings`` matches cycle
    vertices in name order, so one relabelling can cost 10-30x another
    (C14 at depth 0 took 0.3 s or 8.6 s), and no run could be steady."""

    name = "rigidity"

    def __init__(self, seed, batch):
        super().__init__(seed, batch)
        runs = ([(f"C{n}", n, 0, 1, 2 * n) for n in range(5, 9)]
                + [(f"C{n}", n, 1, n + 1, 2 * n * (n + 1)) for n in range(5, 9)]
                + [("C5", 5, 2, 31, 310), ("Petersen", 0, 0, 1, 120)])
        self.runs = []
        for name, n, depth, npatches, nemb in runs:
            g = cycle(self, n) if n else petersen(self)
            self.expected[f"{name}/d{depth}"] = (npatches, nemb, 0)
            self.runs.append((f"{name}/d{depth}", g, depth))

    def items(self):
        for key, g, depth in self.runs:
            yield key, lambda key=key, g=g, depth=depth: self._run(key, g, depth)

    def _run(self, key, g, depth):
        rep = rigidity.rigidity_experiment(g, depth)
        return (rep.patch_count, rep.embeddings_found, len(rep.failures)) == self.expected[key]


# ---------------------------------------------------------------------------
# invariants

# The n-tree shapes and their doubling vertices come from this fixed seed, not
# from the run's seed: the cost of ``bisimilar`` is exponential in the symmetry
# of the doubled shape, so a handful of items decide the total, and drawing
# them anew per seed moved wall time by up to 2x between seeds.  The run's seed
# relabels the vertices and draws the words.
SHAPE_SEED = 0


def random_ntree(n, max_simplices, rng):
    """A random n-tree grown by gluing simplices along (n-1)-faces."""
    counter = itertools.count()
    simplices = [frozenset(next(counter) for _ in range(n + 1))]
    for _ in range(rng.randrange(max_simplices)):
        host = rng.choice(simplices)
        face = frozenset(rng.sample(sorted(host), n))
        simplices.append(face | {next(counter)})
    return n, simplices


def perturb(g, letters, rng):
    """An equal word: random swaps of adjacent commuting letters and
    inserted cancelling pairs, computed without pcqi."""
    commuting = {frozenset(e) for e in g.edges}
    out = list(letters)
    for _ in range(len(out)):
        i = rng.randrange(len(out) + 1)
        gen = rng.choice(g.vertices)
        s = rng.choice((1, -1))
        out[i:i] = [(gen, s), (gen, -s)]
    for _ in range(2 * len(out)):
        i = rng.randrange(len(out) - 1)
        (a, _), (b, _) = out[i], out[i + 1]
        if a != b and frozenset((a, b)) in commuting:
            out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


class Invariants(Workload):
    """The n-tree pipeline and long word normal forms.

    For each n-tree k: ``build_gph``, ``double_ntree`` at a vertex,
    ``bisimilar(gph(double), gph(k))`` (must hold), ``induced_gph_map`` and
    ``weak_cover_to_embedding`` (its certificate must verify), and
    ``classify_pair`` of the two skeletons (must be QI, the double being a
    finite-index subgroup) and of k against the next n-tree of the pool with
    the same n (must be a definite verdict).  Word items take the normal form
    of a random word of length 10, 40 or 160, which must equal that of a
    perturbed copy."""

    name = "invariants"

    def __init__(self, seed, batch):
        super().__init__(seed, batch)
        shapes = random.Random(SHAPE_SEED)
        self.ntrees = []
        for i in range(120):
            n, simplices = random_ntree(1 + i % 2, 12, shapes)
            at = shapes.randrange(len(simplices) + n)
            names = self.relabel(f"g{j}" for j in range(len(simplices) + n))
            k = ntrees.complex_(n, [[names[v] for v in s] for s in simplices])
            self.ntrees.append((k, names[at]))
        p3k1 = _graph(self.relabel("abcd"), [(0, 1), (1, 2)])
        self.words = []
        for gname, g in (("C5", cycle(self, 5)), ("Petersen", petersen(self)),
                         ("P3+K1", p3k1)):
            for length in (10, 40, 160):
                for j in range(6):
                    w = tuple((self.rng.choice(g.vertices), self.rng.choice((1, -1)))
                              for _ in range(length))
                    self.words.append((f"word/{gname}/{length}/{j}", g, w,
                                       perturb(g, w, self.rng)))
        self.expected.update(bisimilar=True, verified=True, double_qi="QI")

    def items(self):
        for i, (k, v) in enumerate(self.ntrees):
            partner = self.ntrees[(i + 2) % len(self.ntrees)][0]   # same n
            yield f"ntree{k.n}/{i}", lambda k=k, v=v, o=partner: self._ntree(k, v, o)
        for item_id, g, w, w2 in self.words:
            yield item_id, lambda g=g, w=w, w2=w2: self._word(g, w, w2)

    def _ntree(self, k, v, other):
        gph = ntrees.build_gph(k)
        d, fold = ntrees.double_ntree(k, v)
        ok, _ = bisim.bisimilar(ntrees.build_gph(d), gph)
        f = ntrees.induced_gph_map(d, k, fold)
        cert = ntrees.weak_cover_to_embedding(d, k, f)
        verified = embeddings.verify_certificate(cert)
        sk = ntrees.skeleton(k)
        same = classify.classify_pair(ntrees.skeleton(d), sk).verdict
        versus = classify.classify_pair(sk, ntrees.skeleton(other)).verdict
        return (ok == self.expected["bisimilar"] and verified == self.expected["verified"]
                and same == self.expected["double_qi"] and versus in ("QI", "NotQI"))

    @staticmethod
    def _word(g, w, w2):
        u, u2 = words.GroupWord(g, w), words.GroupWord(g, w2)
        nf = words.normal_form(u)
        return (len(nf) <= len(w) and words.normal_form(u2) == nf
                and words.equal(u, u2))


WORKLOADS = {w.name: w for w in (DoublingGirth, EmbedSearch, Rigidity, Invariants)}
