"""Independent brute-force oracles used to pin the fast implementations.

Each oracle is deliberately naive: breadth-first closures, exhaustive
enumeration, no shared code with the package internals beyond the data
types themselves.
"""

from __future__ import annotations

import itertools
from collections import deque

from pcqi import bisim, embeddings, graphs, ntrees, patches, rigidity, words
from pcqi.words import GroupWord


# ---------------------------------------------------------------------------
# word problem: shuffle-and-cancel closure

def _moves(g, letters):
    com = {frozenset(e) for e in g.edges}
    for i in range(len(letters) - 1):
        (g1, s1), (g2, s2) = letters[i], letters[i + 1]
        if g1 == g2 and s1 == -s2:
            yield letters[:i] + letters[i + 2:]
        if g1 != g2 and frozenset((g1, g2)) in com:
            yield letters[:i] + (letters[i + 1], letters[i]) + letters[i + 2:]


def word_closure(g, letters):
    """All letter sequences reachable by swaps and cancellations."""
    seen = {tuple(letters)}
    queue = deque(seen)
    while queue:
        cur = queue.popleft()
        for nxt in _moves(g, cur):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def reduced_class(g, letters):
    closure = word_closure(g, letters)
    shortest = min(map(len, closure))
    return frozenset(w for w in closure if len(w) == shortest)


def equal_oracle(g, u_letters, w_letters):
    return reduced_class(g, tuple(u_letters)) == reduced_class(g, tuple(w_letters))


# ---------------------------------------------------------------------------
# word kernel: the restart-until-nothing-changes loops the one-pass kernel
# replaced, kept verbatim as references

def commuting_pairs(g):
    pairs = set()
    for v in g.vertices:
        pairs.add((v, v))
    for e in g.edges:
        a, b = sorted(e)
        pairs.add((a, b))
        pairs.add((b, a))
    return pairs


def reduce_reference(g, letters):
    """Delete cancelling pairs reachable by commuting swaps, to fixpoint."""
    com = commuting_pairs(g)
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


def lex_least_reference(g, letters):
    """Least shuffle representative of a reduced sequence."""
    com = commuting_pairs(g)
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


def normal_letters_reference(g, letters):
    return tuple(lex_least_reference(g, reduce_reference(g, letters)))


def coset_letters_reference(g, base, letters):
    st = graphs.star(g, base)
    com = commuting_pairs(g)
    cur = reduce_reference(g, letters)
    stripped = True
    while stripped:
        stripped = False
        for i, (gen, _) in enumerate(cur):
            if gen in st and all((cur[k][0], gen) in com for k in range(i)):
                del cur[i]
                cur = reduce_reference(g, cur)
                stripped = True
                break
    return tuple(lex_least_reference(g, cur))


def _last_letters(com, letters):
    """{letter: index of its rightmost copy} for the letters of a reduced
    word that shuffle to its end."""
    out = {}
    for i in range(len(letters) - 1, -1, -1):
        let = letters[i]
        if let not in out and all((x, let[0]) in com for x, _ in letters[i + 1:]):
            out[let] = i
    return out


def join_reference(g, j, w):
    """Least reduced word with both j and w as right factors, by peeling
    common last letters one at a time."""
    com = commuting_pairs(g)
    rest, other = list(j), list(w)
    while True:
        lj, lo = _last_letters(com, rest), _last_letters(com, other)
        common = lj.keys() & lo.keys()
        if not common:
            break
        let = min(common)
        del rest[lj[let]]
        del other[lo[let]]
    return normal_letters_reference(g, tuple(rest) + w)


# ---------------------------------------------------------------------------
# induced embeddings: all injective maps

def embeddings_oracle(dom, cod):
    out = []
    for images in itertools.permutations(cod.vertices, dom.n):
        m = dict(zip(dom.vertices, images))
        if all(dom.has_edge(u, v) == cod.has_edge(m[u], m[v])
               for u, v in itertools.combinations(dom.vertices, 2)):
            out.append(m)
    return out


def find_induced_embeddings_reference(dom, cod, limit=None):
    """The plain backtracking search that forward checking replaced, kept
    verbatim: it tries every codomain vertex for each domain vertex and
    checks each mapped pair, so it pins the enumeration order as well as
    the set."""
    order = sorted(dom.vertices, key=lambda v: (-graphs.degree(dom, v), v))
    dom_adj = graphs.adjacency(dom)
    cod_adj = graphs.adjacency(cod)
    out = []

    def extend(i, mapping, used):
        if limit is not None and len(out) >= limit:
            return
        if i == len(order):
            out.append(graphs.GraphEmbedding(dom, cod, tuple(sorted(mapping.items()))))
            return
        v = order[i]
        nv = dom_adj[v]
        for c in cod.vertices:
            if c in used:
                continue
            nc = cod_adj[c]
            ok = True
            for u, cu in mapping.items():
                if (u in nv) != (cu in nc):
                    ok = False
                    break
            if ok:
                mapping[v] = c
                used.add(c)
                extend(i + 1, mapping, used)
                del mapping[v]
                used.discard(c)

    extend(0, {}, set())
    return out


def patch_certificates_reference(dom, p, limit=None):
    """The route from a patch to certificates that the carried search view
    replaced, kept verbatim: search the named graph `to_simplicial(p)` and
    map the images back through `named_vertices(p)`."""
    found = graphs.find_induced_embeddings(dom, patches.to_simplicial(p), limit)
    if not found:
        return []
    names = patches.named_vertices(p)
    return [embeddings.EmbeddingCertificate(
                dom, p.graph,
                tuple(sorted((v, names[img]) for v, img in emb.as_dict().items())),
                p.provenance)
            for emb in found]


def diameter_reference(g):
    """Exact diameter by BFS from every vertex, or None when g is
    disconnected or empty."""
    if g.n == 0 or not graphs.is_connected(g):
        return None
    best = 0
    for v in g.vertices:
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in graphs.adjacency(g)[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        best = max(best, max(dist.values()))
    return best


def girth_reference(g):
    """Shortest cycle length by a full BFS from every vertex, with no
    cut-off, or None for forests."""
    adj = graphs.adjacency(g)
    best = None
    for root in g.vertices:
        dist, parent = {root: 0}, {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cyc = dist[u] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


# ---------------------------------------------------------------------------
# shape predicates: the 4-subset scan and the complement-based join test
# that the universal-vertex recursion and the one-vertex join test
# replaced, kept verbatim

def is_triangle_built_reference(g):
    """No induced square and no induced path on four vertices.

    The minimal path obstruction is fixed as the 4-vertex induced path
    (both the length-3 and the diameter-3 reading give this graph).
    """
    adj = graphs.adjacency(g)
    for quad in itertools.combinations(g.vertices, 4):
        sub = [frozenset(p) for p in itertools.combinations(quad, 2)]
        present = sum(1 for e in sub if e in g.edges)
        if present == 3:
            degs = sorted(sum(1 for u in quad if u != v and u in adj[v]) for v in quad)
            if degs == [1, 1, 2, 2]:   # path on 4 vertices
                return False
        elif present == 4:
            degs = [sum(1 for u in quad if u != v and u in adj[v]) for v in quad]
            if all(d == 2 for d in degs):   # induced square
                return False
    return True


def is_atomic_reference(g):
    """`graphs.is_atomic` before it tested the closed stars on neighbour
    masks, kept verbatim: one induced subgraph per vertex."""
    if not graphs.is_connected(g):
        return False, graphs.AtomicViolation("disconnected", ())
    for v in g.vertices:
        if graphs.degree(g, v) < 2:
            return False, graphs.AtomicViolation("valence1", (v,))
    gr = graphs.girth(g)
    if gr is not None and gr < 5:
        return False, graphs.AtomicViolation("girth", (gr,))
    for v in g.vertices:
        rest = set(g.vertices) - graphs.star(g, v)
        if not rest:
            return False, graphs.AtomicViolation("star_exhausts", (v,))
        if not graphs.is_connected(graphs.induced_subgraph(g, rest)):
            return False, graphs.AtomicViolation("separating_star", (v,))
    return True, None


def complement(g) -> graphs.SimplicialGraph:
    """The complement graph, which the reference shape verdict reads its
    join parts from."""
    es = frozenset(
        frozenset(p) for p in itertools.combinations(g.vertices, 2)
        if frozenset(p) not in g.edges
    )
    return graphs.SimplicialGraph(g.vertices, es)


def classify_shape_reference(g) -> graphs.ShapeVerdict:
    """Recognize the elementary shapes: cliques, edgeless graphs, trees,
    and joins of two edgeless parts (complete bipartite graphs).

    Precedence: clique, edgeless, tree, join, other.  The single-vertex
    graph reports clique(1) flagged as also edgeless.  Stars are reported
    as trees, not joins; K_{m,n} with m, n >= 2 contains a square so the
    two verdicts never compete.
    """
    ShapeVerdict = graphs.ShapeVerdict
    if g.n == 0:
        raise graphs.GraphError("empty graph has no shape")
    full = g.n * (g.n - 1) // 2
    if len(g.edges) == full:
        return ShapeVerdict("clique", (g.n,), also_edgeless=g.n == 1)
    if not g.edges:
        return ShapeVerdict("edgeless", (g.n,))
    if graphs.is_connected(g) and len(g.edges) == g.n - 1:
        return ShapeVerdict("tree", (graphs.diameter(g),))
    comps = graphs.connected_components(complement(g))
    if len(comps) == 2:
        a, b = comps
        if not any(e <= a or e <= b for e in g.edges):
            k, l = sorted((len(a), len(b)))
            return ShapeVerdict("join_of_two_edgeless", (k, l))
    return ShapeVerdict("other", ())


# ---------------------------------------------------------------------------
# extension-graph edges: the word-algebra test on every pair, with no
# short-circuit from the defining graph

def commute_cg_reference(g, a, b):
    """The edge-or-equality test before the defining graph settled any
    pair, kept verbatim and uncached."""
    # u^x commutes with w^y  iff  conjugating both by x^-1 reduces to
    # [u, w^(y x^-1)] = 1, i.e. membership of the shifted w, the raw word
    # x y^-1 w y x^-1, in the parabolic centralizer of u, which is
    # generated by the closed star: only its support after cancellation
    # matters.
    if a == b:
        return True
    shifted = (a.conj + words.inverse_letters(b.conj) + ((b.base, 1),)
               + b.conj + words.inverse_letters(a.conj))
    return words.reduced_support(g, shifted) <= graphs.star(g, a.base)


def verify_certificate_reference(cert):
    """`embeddings.verify_certificate` before its one-pass pair loop, kept
    verbatim and uncached: every pair of domain vertices goes through
    `patches.commute_cg`."""
    m = cert.as_dict()
    if set(m) != set(cert.domain.vertices):
        return False
    for v, cg in m.items():
        canon = patches.conjugate_generator(
            cert.codomain, cg.base, cg.conj_word(cert.codomain))
        if canon != cg:
            return False
    cgs = list(m.values())
    if len(set(cgs)) != len(cgs):
        return False
    for u, v in ((a, b) for i, a in enumerate(cert.domain.vertices)
                 for b in cert.domain.vertices[i + 1:]):
        if patches.commute_cg(cert.codomain, m[u], m[v]) != cert.domain.has_edge(u, v):
            return False
    return True


def patch_edges_reference(p):
    """A patch's edges rebuilt pair by pair with `commute_cg_reference`."""
    return frozenset(
        frozenset((a, b)) for a, b in itertools.combinations(p.cg_vertices, 2)
        if commute_cg_reference(p.graph, a, b))


# ---------------------------------------------------------------------------
# n-trees: recursive gluing per the generative definition

def ntree_oracle(k: ntrees.NTreeComplex, _memo=None) -> bool:
    """Buildable from n-simplices by repeatedly taking the union of two
    buildable complexes along an (n-1)-simplex shared as their exact
    vertex intersection."""
    if _memo is None:
        _memo = {}
    key = k.simplices
    if key in _memo:
        return _memo[key]
    simps = sorted(k.simplices, key=sorted)
    if len(simps) == 0:
        return False
    if len(simps) == 1:
        _memo[key] = True
        return True
    ok = False
    rest = simps[1:]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            left = frozenset((simps[0],) + extra)
            right = k.simplices - left
            if not right:
                continue
            lv = frozenset().union(*left)
            rv = frozenset().union(*right)
            shared = lv & rv
            if len(shared) != k.n:
                continue
            if not any(shared <= s for s in left):
                continue
            if not any(shared <= s for s in right):
                continue
            if (ntree_oracle(ntrees.NTreeComplex(k.n, left), _memo)
                    and ntree_oracle(ntrees.NTreeComplex(k.n, right), _memo)):
                ok = True
                break
        if ok:
            break
    _memo[key] = ok
    return ok


def validate_ntree_reference(k: ntrees.NTreeComplex):
    """The peeling test before per-vertex and per-face counts replaced the
    union of the rest, kept verbatim: each round re-sorts the simplices and
    rebuilds the union of the others for every candidate."""
    if not k.simplices:
        return False, "no simplices"
    simps = set(k.simplices)
    while len(simps) > 1:
        peelable = None
        for s in sorted(simps, key=sorted):
            rest = simps - {s}
            rest_vs = set().union(*rest)
            shared = s & rest_vs
            if len(shared) != k.n:
                continue
            if any(shared <= t for t in rest):
                peelable = s
                break
        if peelable is None:
            return False, "no outer simplex to peel off"
        simps.discard(peelable)
    return True, None


def generate_ntrees(n, max_simplices, rng, count):
    """Random members of the class, built generatively; each is valid by
    construction."""
    out = []
    for _ in range(count):
        counter = itertools.count()
        simplices = [frozenset(f"g{next(counter)}" for _ in range(n + 1))]
        for _ in range(rng.randrange(max_simplices)):
            host = rng.choice(simplices)
            face = frozenset(rng.sample(sorted(host), n))
            simplices.append(face | {f"g{next(counter)}"})
        out.append(ntrees.NTreeComplex(n, frozenset(simplices)))
    return out


# ---------------------------------------------------------------------------
# bisimilarity: exhaustive common-quotient search, self-contained

def joined_name_reference(members, sep):
    """`bisim.joined_name` before its plain-join fast path, kept verbatim:
    every member is escaped."""
    return sep.join(v.replace("\\", "\\\\").replace(sep, "\\" + sep)
                    for v in sorted(members))


def _partitions(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + (part[i] + (first,),) + part[i + 1:]
        yield ((first,),) + part


def _quotients_oracle(cg: bisim.ColoredGraph):
    """(adjacency dict, color dict) for every legal weak-covering quotient."""
    colors = cg.colors
    adj = {v: set() for v in cg.graph.vertices}
    for e in cg.graph.edges:
        x, y = tuple(e)
        adj[x].add(y)
        adj[y].add(x)
    out = []
    for part in _partitions(tuple(cg.graph.vertices)):
        cls_of = {v: i for i, cls in enumerate(part) for v in cls}
        if any(len({colors[v] for v in cls}) > 1 for cls in part):
            continue
        if any(cls_of[u] == cls_of[v] for u in adj for v in adj[u]):
            continue
        qadj = {i: set() for i in range(len(part))}
        for u in adj:
            for v in adj[u]:
                qadj[cls_of[u]].add(cls_of[v])
        # edge lifting: every quotient edge at cls_of[v] lifts at v
        if any(qadj[cls_of[v]] != {cls_of[u] for u in adj[v]}
               for v in cg.graph.vertices):
            continue
        qcol = {i: colors[part[i][0]] for i in range(len(part))}
        out.append((qadj, qcol))
    return out


def _iso_oracle(q1, q2):
    adj1, col1 = q1
    adj2, col2 = q2
    if len(adj1) != len(adj2):
        return False
    ks1, ks2 = sorted(adj1), sorted(adj2)
    for perm in itertools.permutations(ks2):
        m = dict(zip(ks1, perm))
        if all(col1[v] == col2[m[v]] for v in ks1) and \
           all({m[u] for u in adj1[v]} == adj2[m[v]] for v in ks1):
            return True
    return False


def bisimilar_oracle(a: bisim.ColoredGraph, b: bisim.ColoredGraph) -> bool:
    qs_b = _quotients_oracle(b)
    for qa in _quotients_oracle(a):
        if any(_iso_oracle(qa, qb) for qb in qs_b):
            return True
    return False


def bisimilar_reference(a: bisim.ColoredGraph, b: bisim.ColoredGraph):
    """`bisim.bisimilar` before both decisions shared one procedure, kept
    verbatim with its witness helper inlined: minimal quotients for
    properly colored inputs, else every quotient of b recomputed for each
    quotient of a."""
    def witness(ma, iso, qb, mb):
        return {
            "quotient": qb,
            "map_a": {v: iso[ma[v]] for v in a.graph.vertices},
            "map_b": dict(mb),
        }

    if bisim.properly_colored(a) and bisim.properly_colored(b):
        qa, ma = bisim.minimal_quotient(a)
        qb, mb = bisim.minimal_quotient(b)
        iso = bisim.colored_isomorphic(qa, qb)
        if iso is None:
            return False, None
        return True, witness(ma, iso, qb, mb)
    if max(a.graph.n, b.graph.n) > 8:
        raise bisim.BisimError("monochrome edges on a graph too large for the "
                               "exhaustive fallback")
    for qa, ma in bisim.all_quotients(a):
        for qb, mb in bisim.all_quotients(b):
            iso = bisim.colored_isomorphic(qa, qb)
            if iso is not None:
                return True, witness(ma, iso, qb, mb)
    return False, None


def bisimilar_up_to_pcolor_permutation_reference(a, b, n):
    """The permutation loop before quotients were taken once per side,
    kept verbatim except that it calls `bisimilar_reference`: `bisimilar`
    on the recolored first graph for each permutation, both quotients
    recomputed every time."""
    palette = [f"p{i}" for i in range(1, n + 2)]
    for cg in (a, b):
        bad = set(cg.colors.values()) - set(palette) - {"f"}
        if bad:
            raise bisim.BisimError(f"unexpected colors {sorted(bad)}")
    for images in itertools.permutations(palette):
        perm = dict(zip(palette, images))
        ok, witness = bisimilar_reference(bisim.recolor(a, perm), b)
        if ok:
            return True, perm, witness
    return False, None, None


# ---------------------------------------------------------------------------
# marked cycles: spanning trees by direct filtering

def spanning_trees_oracle(g):
    n = g.n
    out = []
    for combo in itertools.combinations(sorted(g.edges, key=sorted), n - 1):
        vs = set()
        for e in combo:
            vs |= e
        if len(vs) != n:
            continue
        sub = graphs.SimplicialGraph(g.vertices, frozenset(combo))
        if graphs.is_connected(sub):
            out.append(frozenset(combo))
    return out


# ---------------------------------------------------------------------------
# rigidity decomposition: enumerate automorphisms, scan a centralizer ball

def _star_ball(g, base, radius):
    """Canonical words of the centralizer of `base` up to given length."""
    alphabet = [(v, s) for v in graphs.star(g, base) for s in (1, -1)]
    seen = {()}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for letters in frontier:
            for let in alphabet:
                cand = words.normal_form(GroupWord(g, letters + (let,))).letters
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


def decompose_oracle(cert, radius):
    """The decomposition found by trying every isomorphism sigma from the
    codomain onto the domain and every conjugator s * conj(v0) with s in
    the radius ball of the centralizer of the first vertex v0; None when
    none fits."""
    g = cert.codomain
    m = cert.as_dict()
    v0 = g.vertices[0]
    if len(cert.domain.vertices) != g.n:
        return None
    for emb in graphs.find_induced_embeddings(g, cert.domain):
        sigma = emb.as_dict()
        shuffled = {v: m[sigma[v]] for v in g.vertices}
        if any(shuffled[v].base != v for v in g.vertices):
            continue
        c0 = GroupWord(g, shuffled[v0].conj)
        for s in sorted(_star_ball(g, v0, radius)):
            cand = GroupWord(g, s) * c0
            if all(words.coset_canonical(v, cand).letters == shuffled[v].conj
                   for v in g.vertices):
                return rigidity.Decomposition(
                    words.normal_form(cand).letters,
                    tuple(sorted(sigma.items())))
    return None


def _join_reference(g, j, w):
    """`rigidity._join` before it ran on letters, kept verbatim."""
    out = words._reduce(g, j + words.inverse_letters(w))
    cancelled = (len(j) + len(w) - len(out)) // 2
    rest = tuple(out[:len(j) - cancelled])
    return words.normal_form(GroupWord(g, rest + w)).letters


def decompose_embedding_reference(cert):
    """`rigidity.decompose_embedding` before it ran on letters, kept
    verbatim: each join and coset check goes through `GroupWord`, which
    meets malformed letters where they are used."""
    sigma = rigidity._base_map(cert)
    if sigma is None:
        return None
    g = cert.codomain
    m = cert.as_dict()
    conj = ()
    for v in g.vertices:
        conj = _join_reference(g, conj, m[sigma[v]].conj)
    cand = GroupWord(g, conj)
    if any(words.coset_canonical(v, cand).letters != m[sigma[v]].conj
           for v in g.vertices):
        return None
    return rigidity.Decomposition(conj, tuple(sorted(sigma.items())))


def rigidity_experiment_reference(g, depth):
    """The rigidity experiment with the word algebra run on every
    embedding: each certificate is verified and decomposed on its own."""
    rigidity._require_atomic(g)
    family = patches.doubling_family(g, depth)
    seen_maps = set()
    decs, fails = [], []
    found = 0
    for p in family:
        for cert in patch_certificates_reference(g, p):
            if cert.mapping in seen_maps:
                continue
            seen_maps.add(cert.mapping)
            if not embeddings.verify_certificate(cert):
                raise rigidity.RigidityError("patch produced an unverifiable embedding")
            found += 1
            dec = rigidity.decompose_embedding(cert)
            if dec is None:
                fails.append(cert)
            else:
                decs.append(dec)
    return rigidity.RigidityReport(g, depth, len(family), found, tuple(decs), tuple(fails))
