"""A patch carries its edges once: as one neighbour mask per vertex.  The
edge set, the search view and the outputs are derived from the masks, and
none of them leaves a second copy of the edges on the patch."""

import dataclasses

from pcqi import patches
from pcqi.patches import ConjugateGenerator


def holds_edge_set(value):
    """True when `value` is, or a tuple or list in it holds, a set whose
    members are vertex pairs."""
    if isinstance(value, (set, frozenset)):
        return any(isinstance(e, (set, frozenset, tuple)) for e in value)
    if isinstance(value, (tuple, list)):
        return any(holds_edge_set(v) for v in value)
    return False


def test_patch_fields_are_the_mask_representation():
    names = [f.name for f in dataclasses.fields(patches.Patch)]
    assert names == ["graph", "cg_vertices", "nbrs", "provenance"]


def test_derived_views_leave_no_edge_set_on_the_patch(c5):
    v1 = ConjugateGenerator("v1", ())
    p = patches.double_along_star(patches.base_patch(c5), v1, 1)
    p = patches.double_along_star(p, p.cg_vertices[-1], 1)
    edges = p.cg_edges
    assert edges == p.cg_edges and edges is not p.cg_edges   # derived per call
    patches.to_simplicial(p)
    p.search_view
    assert p.has_vertex(v1) and v1 in p.vertex_set
    assert {"search_view", "vertex_set"} <= set(vars(p))
    for name, value in vars(p).items():
        assert not holds_edge_set(value), name


def test_guard_flags_a_cached_edge_set(c5):
    p = patches.base_patch(c5)
    assert not any(holds_edge_set(v) for v in vars(p).values())
    assert holds_edge_set(p.cg_edges)
    assert holds_edge_set(([1], (p.cg_edges,)))
    assert not holds_edge_set((p.cg_vertices, list(p.nbrs)))
