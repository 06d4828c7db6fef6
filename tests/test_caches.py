"""Every cache in the runtime package is bounded by a module constant, so
no cache grows without limit and no cache size is an option."""

import ast
import importlib
import pkgutil

import pcqi


def pcqi_modules():
    return [importlib.import_module(f"pcqi.{info.name}")
            for info in pkgutil.iter_modules(pcqi.__path__)]


def unbounded_caches(source):
    """Line numbers of the `lru_cache` and `cache` uses in `source` that do
    not pass `maxsize=` a name ending in `_CACHE_SIZE` as the only
    argument."""
    nodes = list(ast.walk(ast.parse(source)))
    bounded = set()
    for node in nodes:
        if (isinstance(node, ast.Call) and not node.args
                and [k.arg for k in node.keywords] == ["maxsize"]
                and isinstance(node.keywords[0].value, ast.Name)
                and node.keywords[0].value.id.endswith("_CACHE_SIZE")):
            bounded.add(id(node.func))
    return sorted(node.lineno for node in nodes
                  if (isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")
                      or isinstance(node, ast.Attribute)
                      and node.attr in ("lru_cache", "cache"))
                  and isinstance(node.ctx, ast.Load) and id(node) not in bounded)


def test_every_cache_is_bounded_by_a_module_constant():
    modules = pcqi_modules()
    assert len(modules) > 5
    caches = 0
    for mod in modules:
        with open(mod.__file__) as f:
            assert unbounded_caches(f.read()) == [], mod.__name__
        sizes = {name: value for name, value in vars(mod).items()
                 if name.endswith("_CACHE_SIZE")}
        assert all(type(v) is int and v > 0 for v in sizes.values()), sizes
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                maxsize = obj.cache_parameters()["maxsize"]
                assert maxsize in sizes.values(), f"{mod.__name__}.{name}"
                caches += 1
    # words 2, patches 2, embeddings 2, ntrees 7, bisim 1, classify 1
    assert caches == 15


def test_guard_flags_an_unbounded_cache():
    source = ("from functools import cache, lru_cache\n"
              "import functools\n"
              "SMALL_CACHE_SIZE = 4\n"
              "@lru_cache(maxsize=SMALL_CACHE_SIZE)\n"
              "def ok(x): return x\n"
              "@lru_cache(maxsize=None)\n"
              "def unbounded(x): return x\n"
              "@lru_cache(maxsize=128)\n"
              "def literal(x): return x\n"
              "@cache\n"
              "def bare(x): return x\n"
              "@functools.lru_cache\n"
              "def attribute(x): return x\n")
    assert unbounded_caches(source) == [6, 8, 10, 12]
