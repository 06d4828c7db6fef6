"""Atomic-graph rigidity at desk scale: the experiment checking that every
embedding of an atomic graph into its own extension graph is a
conjugation composed with a graph automorphism.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

from . import embeddings, graphs, patches, words
from .graphs import SimplicialGraph


class RigidityError(ValueError):
    pass


@dataclass(frozen=True)
class Decomposition:
    conjugator: tuple           # canonical letters of g
    automorphism: tuple         # ((v, sigma(v)), ...)


def _report_order(copies, expansion):
    """(copy, rho) for each of `copies` and each (perm, rho) of
    `expansion`, in report order.  A copy is (c, payload), with c its
    images by base vertex in `graph.vertices` order, and perm the positions
    there of rho^-1 of the search order, so that the embedding c ∘ rho^-1
    has the images [c[i] for i in perm] in search order.  The embeddings of
    one patch are ordered on those images, each ranked as
    `Patch.search_view` ranks it, by (name, vertex): the order does not
    depend on the patch, so no view is built."""
    keyed = []
    for copy in copies:
        ranked = [(cg.name(), cg) for cg in copy[0]]
        keyed.extend((tuple([ranked[i] for i in perm]), copy, perm, rho)
                     for perm, rho in expansion)
    keyed.sort(key=operator.itemgetter(0))
    return [(copy, perm, rho) for _, copy, perm, rho in keyed]


class _Decompositions(Sequence):
    """The decompositions of a `RigidityReport`, stored once per conjugate
    copy and expanded when read.  A read-only sequence whose length, items,
    order, equality and hash are those of the tuple of every embedding's
    `Decomposition` in report order.

    `batches` holds, per patch with a decomposing new copy, those copies as
    (c, conjugator), with c the images by base vertex, and `expansion` the
    Aut(g) of `_report_order`: the embedding c ∘ rho^-1 decomposes as
    (conjugator, rho)."""

    def __init__(self, batches, expansion):
        self._batches = batches
        self._expansion = expansion
        self._ends = list(itertools.accumulate(len(b) * len(expansion) for b in batches))
        self._read = (None, ())     # the batch expanded last, for indexing

    @property
    def copy_count(self):
        """How many conjugate copies are stored."""
        return sum(map(len, self._batches))

    def _expand(self, k):
        if self._read[0] != k:
            self._read = (k, [Decomposition(conj, rho) for (_, conj), _, rho
                              in _report_order(self._batches[k], self._expansion)])
        return self._read[1]

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        for k in range(len(self._batches)):
            yield from self._expand(k)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        n = len(self)
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("decomposition index out of range")
        k = bisect.bisect_right(self._ends, i)
        return self._expand(k)[i - (self._ends[k - 1] if k else 0)]

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Decompositions)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of `rigidity_experiment`.  The decomposition of each
    embedding is solved, not searched for, so every entry of `failures` is
    a genuine counterexample to atomic rigidity: an embedding that is not
    a graph automorphism followed by a conjugation.  Decompositions and
    failures are listed in the order of the full enumeration: patch by
    patch, and within a patch in `graphs.find_induced_embeddings` order,
    each embedding at its first patch."""
    graph: SimplicialGraph
    depth: int
    patch_count: int
    embeddings_found: int
    decompositions: Sequence    # of the embeddings that decompose, in order
    failures: tuple             # EmbeddingCertificates with no decomposition

    def to_json(self):
        return {
            "depth": self.depth,
            "patches": self.patch_count,
            "embeddings": self.embeddings_found,
            "failures": len(self.failures),
            "decompositions": [
                {"conjugator": words.format_letters(d.conjugator),
                 "automorphism": dict(d.automorphism)}
                for d in self.decompositions
            ],
        }


def _join(g, j, w):
    """Least reduced word with both j and w as right factors: peel their
    greatest common suffix off j and prepend the rest of j to w.  Only
    meaningful when such a word exists; callers check the result.

    j and w are reduced, so reducing j·w⁻¹ cancels exactly that common
    suffix, each pair deleting one letter of j; the letters of j left in
    front of the reduced word are the rest of j.  j is in normal form, so
    it is its own join with the empty word and with itself."""
    if not w or w == j:
        return j
    out = words._reduce(g, j + words.inverse_letters(w))
    cancelled = (len(j) + len(w) - len(out)) // 2
    rest = tuple(out[:len(j) - cancelled])
    return words._normal_letters(g, rest + w)


def _base_map(cert: embeddings.EmbeddingCertificate):
    """sigma: base vertex -> domain vertex whose image has that base, when
    the bases are a bijection onto the codomain's vertices and sigma is a
    graph isomorphism from the codomain onto the domain; else None.  A
    bijection is injective on edges, so it carries the codomain's edges
    onto the domain's iff it maps every codomain edge to a domain edge and
    the edge counts are equal."""
    g = cert.codomain
    dom = cert.domain
    m = cert.as_dict()
    sigma = {cg.base: u for u, cg in m.items()}
    if (set(m) != set(dom.vertices) or set(dom.vertices) != set(g.vertices)
            or set(sigma) != set(g.vertices)):
        return None
    if frozenset(frozenset(sigma[x] for x in e) for e in g.edges) != dom.edges:
        return None
    return sigma


def _check_conjugator(g, letters):
    """The errors the word algebra meets on malformed conjugator letters:
    a KeyError for a generator outside g, which the adjacency lookup of
    `words._reduce` meets first, scanning the inverse word, then a
    WordError for a bad sign."""
    for gen, _ in reversed(letters):
        if gen not in g:
            raise KeyError(gen)
    words.check_letters(g, letters)


def decompose_embedding(cert: embeddings.EmbeddingCertificate):
    """(g, sigma) with image(sigma(v)) = v^g for all v, or None.

    Both parts are forced by the certificate.  sigma(v) is the domain
    vertex whose image has base v, and must be a graph isomorphism from the
    codomain onto the domain.  With c_v the coset representative of C(v)·g
    carried by that image, every c_v is a right factor of the reduced g
    whose left cofactor lies in C(v); so g is the join of the c_v under the
    suffix order, up to the centre, which is trivial for an atomic graph.
    The join is checked against every coset, so None means no decomposition
    exists: a genuine counterexample to rigidity, not an incomplete search.

    The work runs on letters.  The conjugators are checked once, first, in
    the order of the codomain's vertices (`_check_conjugator`)."""
    sigma = _base_map(cert)
    if sigma is None:
        return None
    g = cert.codomain
    m = cert.as_dict()
    cosets = [m[sigma[v]].conj for v in g.vertices]
    for c in cosets:
        _check_conjugator(g, c)
    conj = ()
    for c in cosets:
        conj = _join(g, conj, c)
    if any(words._coset_letters(g, v, conj) != c for v, c in zip(g.vertices, cosets)):
        return None
    return Decomposition(conj, tuple(sorted(sigma.items())))


def _patch_copies(plan, p: patches.Patch, new_from=0, radius=None):
    """(cgs, copies): the vertices of p in insertion order, and the
    embeddings into p that meet the symmetry-breaking conditions of the
    domain's search `plan`, one per image set, as tuples of indices into
    cgs in `plan.order`; when `new_from` is nonzero, only those that use a
    vertex at that index or later.  The search reads the carried `nbrs`, and
    degrees are counted once, on the candidate masks it starts from; a patch
    whose counts cannot hold the domain has no copies, and cgs is then ().

    `radius`, when given, is the diameter of the domain, which is then
    connected.  A copy lies within that distance of each of its vertices,
    so the copies that use a vertex from `new_from` on are searched among
    the vertices within that distance of one."""
    nbrs = p.nbrs
    fits = graphs._fits(nbrs)
    if new_from and radius is not None:
        near = graphs._reach(nbrs, (1 << p.n) - (1 << new_from), steps=radius)
        fits = [m & near for m in fits]
    if not graphs._can_hold(plan, [m.bit_count() for m in fits]):
        return (), []
    cands = [fits[d] for d in plan.degrees]
    return p.cg_vertices, graphs._embedding_search(plan, nbrs, cands=cands, new_from=new_from)


def rigidity_experiment(g: SimplicialGraph, depth: int) -> RigidityReport:
    """Enumerate every induced embedding of g into every patch reachable
    by `depth` doublings and attempt the (conjugator, automorphism)
    decomposition for each; failures are collected, not raised.

    The search and the word algebra run once per conjugate copy of g, that
    is, once per image set; every other embedding onto the set follows by
    composition with Aut(g), which is computed once.

    - Two embeddings m, m' onto one image set differ by m^-1 ∘ m', an
      automorphism of g.  So the embeddings onto the set are m ∘ tau for
      tau in Aut(g), and a search under the symmetry-breaking conditions of
      Aut(g) (`graphs._symmetry_conditions`) yields exactly one of them.
      A patch that contains an image set holds every embedding onto it, so
      an embedding was met in an earlier patch exactly when its image set
      was, and a set of image sets replaces a set of mappings.
    - Verification depends on the set alone: m ∘ tau has the images of m,
      and tau carries the domain's edges onto themselves.  The copy m is
      verified, and an unverifiable copy raises.
    - Let sigma_m be the base map of m (`decompose_embedding`): the domain
      vertex whose image has base v.  The base map of m ∘ tau is
      tau^-1 ∘ sigma_m, an isomorphism exactly when sigma_m is.  The
      conjugator is the join of the images taken by base, and the coset
      check reads each image with base v, so it depends on the set alone.
      So m ∘ tau decomposes, as (the copy's conjugator, tau^-1 ∘ sigma_m),
      exactly when m does.
    - When m decomposes, put c = m ∘ sigma_m, which sends v to the image with
      base v.  For rho in Aut(g) the embedding c ∘ rho^-1 is m ∘ tau with
      tau = sigma_m ∘ rho^-1, whose base map is rho.  So the copy expands to
      the embeddings c ∘ rho^-1, each decomposing as (the conjugator, rho),
      and the |Aut(g)| rho are shared by every image set.

    A doubled patch is searched only for the copies that use a vertex its
    doubling added (the delta cut), and only among the vertices within the
    diameter of g of one, since a copy lies that close to each of its
    vertices.  The patch's other vertices are its parent's, with the
    parent's edges, since both patches are induced subgraphs of the
    extension graph; so a copy that misses the new vertices is a copy in
    the parent.  The family is breadth first, so the parent came earlier,
    and by induction from the base patch, which is searched whole, every
    copy in it is already among the image sets met.

    The search reads each patch in insertion order: it only has to find
    each image set once.  The report keeps one record per decomposing copy
    (`_Decompositions`), and the embeddings and their order are computed
    when the decompositions are read.  Each patch's new embeddings are
    ordered on their images in search order, each ranked as in
    `Patch.search_view` (`_report_order`), which is the order
    `find_induced_embeddings` enumerates them in on `to_simplicial`; so
    the report is that of decomposing every embedding of every patch in
    turn.  A certificate is built for each new copy, to be verified and
    decomposed, and for each failure, in report order."""
    ok, why = graphs.is_atomic(g)
    if not ok:
        raise RigidityError(f"input is not atomic: {why}")
    family, parent_sizes = patches._doubling_family(g, depth)
    auts = graphs.automorphisms(g)
    plan = graphs._domain_plan(g, graphs._symmetry_conditions(g, auts))
    order = plan.order
    radius = graphs.diameter(g)
    position = {v: i for i, v in enumerate(g.vertices)}
    # per rho: rho^-1 of the search order as positions, and rho as an automorphism
    expansion = []
    for rho in auts:
        inverse = {w: v for v, w in rho.items()}
        expansion.append((tuple(position[inverse[u]] for u in order),
                          tuple(sorted(rho.items()))))
    seen = set()
    batches, fails = [], []
    found = 0
    for p, parent_n in zip(family, parent_sizes):
        cgs, copies = _patch_copies(plan, p, parent_n, radius)
        batch, failed = [], []
        for copy in copies:
            images = [cgs[k] for k in copy]
            key = frozenset(images)
            if key in seen:
                continue
            seen.add(key)
            cert = embeddings.EmbeddingCertificate(
                g, p.graph, tuple(sorted(zip(order, images))), p.provenance)
            if not embeddings.verify_certificate(cert):
                raise RigidityError("patch produced an unverifiable embedding")
            dec = decompose_embedding(cert)
            m = dict(zip(order, images))
            if dec is None:
                failed.append((tuple(m[v] for v in g.vertices), None))
            else:
                batch.append((tuple(m[u] for _, u in dec.automorphism), dec.conjugator))
        found += (len(batch) + len(failed)) * len(expansion)
        if batch:
            batches.append(batch)
        for (c, _), perm, _ in _report_order(failed, expansion):
            fails.append(embeddings.EmbeddingCertificate(
                g, p.graph, tuple(sorted(zip(order, [c[i] for i in perm]))), p.provenance))
    return RigidityReport(g, depth, len(family), found,
                          _Decompositions(batches, expansion), tuple(fails))
