"""The runtime package imports nothing but the standard library and
itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcqi"


def foreign_imports(source):
    """Top-level names of the absolute imports in `source`, at any depth,
    that are neither `pcqi` nor a standard-library module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        tops = (name.partition(".")[0] for name in names)
        out += [t for t in tops if t != "pcqi" and t not in sys.stdlib_module_names]
    return out


def test_runtime_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    found = {f.name: foreign_imports(f.read_text()) for f in files}
    assert not any(found.values()), found


def test_guard_flags_a_third_party_import():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "import networkx as nx\n"
              "from . import graphs\n"
              "from pcqi.words import word\n"
              "def f():\n"
              "    from hypothesis import given\n")
    assert foreign_imports(source) == ["networkx", "hypothesis"]
