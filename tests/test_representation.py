"""A patch carries its edges once: as one neighbour mask per vertex.  The
edge set, the search view and the outputs are derived from the masks, and
none of them leaves a second copy of the edges on the patch.  A named graph
derives the same form once, in `SimplicialGraph.nbrs`, the only user of
`graphs._masks`, so no predicate rebuilds masks per call."""

import ast
import dataclasses

from pcqi import patches
from pcqi.patches import ConjugateGenerator

from test_caches import pcqi_modules


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


def scopes_naming_masks(source, module):
    """The qualified names of the scopes of `source` (the module itself as
    `module`) that name `_masks`, bare or as an attribute."""
    found = set()

    def visit(node, scope):
        if (isinstance(node, ast.Name) and node.id == "_masks"
                or isinstance(node, ast.Attribute) and node.attr == "_masks"):
            found.add(scope)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_only_the_graph_mask_property_builds_masks():
    scopes = set()
    for mod in pcqi_modules():
        with open(mod.__file__) as f:
            scopes |= scopes_naming_masks(f.read(), mod.__name__)
    assert scopes == {"pcqi.graphs.SimplicialGraph.nbrs"}


def test_guard_flags_a_mask_rebuild():
    source = ("from pcqi import graphs\n"
              "class G:\n"
              "    def nbrs(self):\n"
              "        return _masks(self.vertices, self.edges)\n"
              "def _masks(vertices, edges):\n"
              "    return []\n"
              "def girth(g):\n"
              "    return len(graphs._masks(g.vertices, g.edges))\n"
              "build = graphs._masks\n")
    assert scopes_naming_masks(source, "m") == {"m", "m.G.nbrs", "m.girth"}
