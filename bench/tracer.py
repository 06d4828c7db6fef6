"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` on
their modules with timing wrappers; pcqi calls across (and within) modules
through module attributes, so nested calls are seen too.  Each wrapper
counts calls and total time, and charges its duration to the enclosing
wrapped call, so self time is total time minus time in wrapped children.

Spans are kept in memory: one per item, and one per outermost call into each
module (no other call of that module on the stack), at most ``SPAN_CAP`` per
item and function; hot nested calls only feed the counters.
"""

import functools
import importlib
import time

LAYERS = {
    "words": ["normal_form", "equal", "commute", "is_trivial", "support",
              "supported_in", "coset_canonical", "conjugate"],
    "patches": ["base_patch", "double_along_star", "ball_patch", "commute_cg",
                "conjugate_generator", "to_simplicial"],
    "graphs": ["find_induced_embeddings", "girth"],
    "embeddings": ["search_embedding", "verify_certificate"],
    "rigidity": ["rigidity_experiment", "decompose_embedding"],
    "ntrees": ["build_gph", "double_ntree", "induced_gph_map",
               "weak_cover_to_embedding", "validate_ntree", "vertex_coloring"],
    "bisim": ["bisimilar", "minimal_quotient", "colored_isomorphic",
              "bisimilar_up_to_pcolor_permutation"],
    "classify": ["classify_pair"],
}

# metric prefix -> (module, lru_cache-wrapped private function)
CACHES = {
    "words.normal_letters": ("words", "_normal_letters"),
    "words.coset_letters": ("words", "_coset_letters"),
    "patches.commute_cg": ("patches", "_commute_cg"),
}

SPAN_CAP = 8


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.stats = {}         # "module.function" -> [calls, total_s, child_s]
        self.counts = {"patches.vertices_built": 0,
                       "graphs.find_induced_embeddings.results": 0,
                       "embeddings.patches_searched": 0,
                       "embeddings.found": 0,
                       "rigidity.decompose_failed": 0,
                       "spans_dropped": 0}
        self.stack = []         # [name, child_s, span index or None]
        self.open_modules = {}  # module -> wrapped calls of it on the stack
        self.spans = []         # [item, name, start, end, parent span]
        self.per_item = {}      # (item, name) -> spans recorded
        self.snapshots = []     # (item, {cache: [hits, misses, size]})
        self.item = None
        self.origin = time.perf_counter()

    def install(self):
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"pcqi.{module}")
            for name in names:
                setattr(mod, name, self._wrap(module, name, getattr(mod, name)))

    def begin_item(self, item):
        self.item = item
        self.stack.append([f"item:{item}", 0.0, self._span(f"item:{item}", None)])

    def end_item(self):
        _, _, idx = self.stack.pop()
        self.spans[idx][3] = time.perf_counter() - self.origin
        self.snapshots.append((self.item, self._cache_info()))
        self.item = None

    def _span(self, name, parent):
        self.spans.append([self.item, name, time.perf_counter() - self.origin,
                           None, parent])
        return len(self.spans) - 1

    def _enclosing_span(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def _wrap(self, module, name, fn):
        key = f"{module}.{name}"
        stat = self.stats[key] = [0, 0.0, 0.0]
        stack, open_modules, counts = self.stack, self.open_modules, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = None
            if not open_modules.get(module):
                seen = self.per_item.get((self.item, key), 0)
                if seen < SPAN_CAP:
                    self.per_item[(self.item, key)] = seen + 1
                    span = self._span(key, self._enclosing_span())
                else:
                    counts["spans_dropped"] += 1
            caller = stack[-1][0] if stack else None
            frame = [key, 0.0, span]
            open_modules[module] = open_modules.get(module, 0) + 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                open_modules[module] -= 1
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span is not None:
                    self.spans[span][3] = time.perf_counter() - self.origin
            self._count(key, caller, result)
            return result

        return wrapper

    def _count(self, key, caller, result):
        counts = self.counts
        if key in ("patches.base_patch", "patches.double_along_star",
                   "patches.ball_patch"):
            counts["patches.vertices_built"] += result.n
        elif key == "graphs.find_induced_embeddings":
            counts["graphs.find_induced_embeddings.results"] += len(result)
            if caller == "embeddings.search_embedding":
                counts["embeddings.patches_searched"] += 1
        elif key == "embeddings.search_embedding" and result is not None:
            counts["embeddings.found"] += 1
        elif key == "rigidity.decompose_embedding" and result is None:
            counts["rigidity.decompose_failed"] += 1

    @staticmethod
    def _cache_info():
        out = {}
        for prefix, (module, name) in CACHES.items():
            fn = getattr(importlib.import_module(f"pcqi.{module}"), name, None)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[prefix] = [info.hits, info.misses, info.currsize]
        return out

    def metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        out = {}
        for key, (calls, total, child) in self.stats.items():
            out[f"{key}.calls"] = (calls, "count")
            out[f"{key}.self_s"] = (total - child, "s")
            out[f"{key}.total_s"] = (total, "s")
        for prefix, (hits, misses, _) in self._cache_info().items():
            out[f"{prefix}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        c = self.counts
        searches = self.stats["embeddings.search_embedding"][0]
        out["patches.vertices_built"] = (c["patches.vertices_built"], "count")
        out["graphs.find_induced_embeddings.results"] = (
            c["graphs.find_induced_embeddings.results"], "count")
        out["embeddings.patches_per_search"] = (
            _ratio(c["embeddings.patches_searched"], searches), "patches/search")
        out["embeddings.found_ratio"] = (_ratio(c["embeddings.found"], searches), "ratio")
        out["rigidity.decompose_fail_ratio"] = (
            _ratio(c["rigidity.decompose_failed"],
                   self.stats["rigidity.decompose_embedding"][0]), "ratio")
        return out

    def report(self):
        return {"metrics": {k: list(v) for k, v in self.metrics().items()},
                "counts": self.counts,
                "spans": self.spans,
                "cache_snapshots": self.snapshots}
