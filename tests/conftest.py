import itertools
import random

import pytest

from pcqi import graphs


def cycle(n, prefix="v"):
    vs = [f"{prefix}{i}" for i in range(1, n + 1)]
    return graphs.graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def clique(n, prefix="x"):
    vs = [f"{prefix}{i}" for i in range(n)]
    return graphs.graph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[:i]])


def path(n):
    vs = [chr(ord("a") + i) for i in range(n)]
    return graphs.graph(vs, list(zip(vs, vs[1:])))


def star(k):
    leaves = [f"l{i}" for i in range(1, k + 1)]
    return graphs.graph(["c"] + leaves, [("c", l) for l in leaves])


def edgeless(n):
    return graphs.graph([f"e{i}" for i in range(n)])


def random_graph(n, p, rng, prefix="r"):
    vs = [f"{prefix}{i}" for i in range(n)]
    es = [(a, b) for i, a in enumerate(vs) for b in vs[:i] if rng.random() < p]
    return graphs.graph(vs, es)


def isomorphism_pairs(rng, count, palette=()):
    """`count` random pairs (g, h, colours of g, colours of h) on 0-7
    vertices, with every vertex coloured from `palette` when it is given.
    About half are a graph and a relabelled copy with the colours carried
    over, sometimes with one pair of vertices flipped between edge and
    non-edge or one colour changed; the rest are drawn independently."""
    for _ in range(count):
        n = rng.randrange(8)
        g = random_graph(n, rng.random(), rng, "g")
        cg = {v: rng.choice(palette) for v in g.vertices} if palette else {}
        if rng.random() < 0.5:
            h = random_graph(rng.choice((n, rng.randrange(8))), rng.random(), rng, "h")
            ch = {v: rng.choice(palette) for v in h.vertices} if palette else {}
        else:
            names = [f"h{k}" for k in range(n)]
            rng.shuffle(names)
            rename = dict(zip(g.vertices, names))
            edges = {frozenset(rename[v] for v in e) for e in g.edges}
            ch = {rename[v]: c for v, c in cg.items()}
            if n >= 2 and rng.random() < 0.3:
                edges ^= {frozenset(rng.sample(names, 2))}
            if palette and n and rng.random() < 0.3:
                ch[rng.choice(names)] = rng.choice(palette)
            h = graphs.graph(names, [tuple(e) for e in edges])
        yield g, h, cg, ch


def labelled_graphs(max_n):
    """Every graph on the vertices v0..v{n-1}, for each n <= max_n."""
    for n in range(max_n + 1):
        vs = [f"v{i}" for i in range(n)]
        pairs = list(itertools.combinations(vs, 2))
        for mask in range(1 << len(pairs)):
            yield graphs.graph(vs, [p for k, p in enumerate(pairs) if mask >> k & 1])


def predicate_inputs(rng):
    """Every labelled graph on at most 6 vertices, then 2000 random graphs
    on 7-12 vertices of random density: the inputs on which the shape
    predicates are pinned to their references."""
    yield from labelled_graphs(6)
    for _ in range(2000):
        yield random_graph(rng.randint(7, 12), rng.random(), rng)


def all_trees(n, _cache={}):
    """All trees on n labelled-canonical vertices, up to isomorphism."""
    if n in _cache:
        return _cache[n]
    if n == 1:
        out = [graphs.graph(["t0"])]
    else:
        out = []
        for t in all_trees(n - 1):
            for v in t.vertices:
                g2 = graphs.graph(
                    list(t.vertices) + [f"t{n - 1}"],
                    [tuple(e) for e in t.edges] + [(v, f"t{n - 1}")])
                if not any(graphs.are_isomorphic(g2, h) for h in out):
                    out.append(g2)
    _cache[n] = out
    return out


@pytest.fixture
def c5():
    return cycle(5)


@pytest.fixture
def petersen():
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    edges = ([(outer[i], outer[(i + 1) % 5]) for i in range(5)]
             + [(outer[i], inner[i]) for i in range(5)]
             + [(inner[i], inner[(i + 2) % 5]) for i in range(5)])
    return graphs.graph(outer + inner, edges)


@pytest.fixture
def path3():
    return path(3)


@pytest.fixture
def path4():
    return path(4)


@pytest.fixture
def wedge():
    from pcqi import classify
    return classify.wedge_of_c5s()


@pytest.fixture
def rng():
    return random.Random(20260823)
