"""The benchmark wraps and reads pcqi functions by name, in the tables
`LAYERS` and `CACHES` of `bench/tracer.py`.  The tests under `bench/` are
not part of this suite, so the names are checked here: a function that only
the benchmark uses cannot be deleted or renamed unnoticed."""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def tracer_tables():
    """`LAYERS` and `CACHES` of the tracer, read from its source."""
    with open(TRACER) as f:
        tree = ast.parse(f.read())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("LAYERS", "CACHES"):
                    tables[target.id] = ast.literal_eval(node.value)
    return tables["LAYERS"], tables["CACHES"]


def test_every_traced_layer_and_cache_exists():
    layers, caches = tracer_tables()
    assert layers and caches
    for module, names in layers.items():
        mod = importlib.import_module(f"pcqi.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"pcqi.{module}.{name}"
    for metric, (module, name) in caches.items():
        fn = getattr(importlib.import_module(f"pcqi.{module}"), name, None)
        assert callable(getattr(fn, "cache_info", None)), f"{metric}: pcqi.{module}.{name}"
