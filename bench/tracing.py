"""Outside-in tracing of the triparts modules.

A Tracer replaces each traced function, in every namespace that bound it,
with a wrapper that counts calls and adds up self time: the call's span
minus the spans of traced calls made inside it.  Calls to the functions in
HOT run once per partition and are only aggregated; every other call also
keeps a span (name, job, start, end, parent) in memory.  Nothing inside
the program changes, and every binding is put back on exit.
"""

import multiprocessing.pool
import sys
import time

# Per-layer metrics: (name, unit, better, the end-to-end metric it should
# move and on which workload).  A name is <module>.<function>.<field>.
LAYER_METRICS = [
    ("cli.main.calls", "count", "lower", "query_p50_ms on small_queries, wall_s on crank_export"),
    ("cli.main.self_s", "s", "lower", "query_p50_ms on small_queries, wall_s on crank_export; about zero on verify_sweep"),
    ("cli.stdout_bytes", "bytes", "lower", "query_p50_ms on small_queries, wall_s on crank_export"),
    ("cli.pool_map.self_s", "s", "lower", "wall_s on verify_sweep"),
    ("partitions.enumerate_partitions.calls", "count", "lower", "wall_s on crank_export"),
    ("partitions.enumerate_partitions.self_s", "s", "lower", "wall_s on crank_export"),
    ("partitions.enumerate_partitions.items", "count", "lower", "wall_s on crank_export"),
    ("partitions.count_bruteforce.calls", "count", "lower", "query_p99_ms on small_queries"),
    ("partitions.count_bruteforce.self_s", "s", "lower", "query_p99_ms on small_queries, wall_s on verify_sweep"),
    ("ehrhart.box_decompose.calls", "count", "lower", "wall_s on crank_export"),
    ("ehrhart.box_decompose.self_s", "s", "lower", "wall_s on crank_export"),
    ("ehrhart.box_compose.calls", "count", "lower", "wall_s on crank_export"),
    ("ehrhart.triangle.calls", "count", "lower", "wall_s on crank_export"),
    ("ehrhart.triangle.self_s", "s", "lower", "wall_s on crank_export"),
    ("ehrhart.triangle.items", "count", "lower", "wall_s on crank_export"),
    ("ehrhart.tile_partition_triangle.self_s", "s", "lower", "wall_s on crank_export"),
    ("quasipoly.evaluate.calls", "count", "lower", "query_p50_ms on small_queries"),
    ("quasipoly.evaluate.self_s", "s", "lower", "query_p50_ms on small_queries"),
    ("congruence.sqrt_minus3.self_s", "s", "lower", "query_p99_ms on small_queries"),
    ("congruence.is_prime.calls", "count", "lower", "query_p99_ms on small_queries"),
    ("congruence.is_prime.self_s", "s", "lower", "query_p99_ms on small_queries"),
    ("congruence.residues_neg.calls", "count", "lower", "wall_s on crank_export"),
    ("cranks.c_ls.calls", "count", "lower", "wall_s on crank_export"),
    ("cranks.c_ls.self_s", "s", "lower", "wall_s on crank_export"),
    ("cranks.c_ls_histogram.calls", "count", "lower", "wall_s on verify_sweep"),
    ("cranks.c_ls_histogram.self_s", "s", "lower", "wall_s on verify_sweep"),
    ("cranks.step_f.calls", "count", "lower", "wall_s on crank_export"),
    ("cranks.step_f.self_s", "s", "lower", "wall_s on crank_export"),
    ("cranks.cycle_decomposition.self_s", "s", "lower", "wall_s on crank_export"),
    ("cranks.histogram.self_s", "s", "lower", "wall_s on crank_export"),
    ("cranks.ehrhart_crank.calls", "count", "lower", "wall_s on crank_export"),
    ("cranks.ehrhart_crank.self_s", "s", "lower", "wall_s on crank_export"),
    ("cranks.ehrhart_crank_closed_form.calls", "count", "lower", "wall_s on crank_export"),
    ("cranks.ehrhart_crank_closed_form.self_s", "s", "lower", "wall_s on crank_export"),
    ("cranks.build_arrangement.self_s", "s", "lower", "wall_s on crank_export"),
    ("cranks.arrangement_2m_minus_2.self_s", "s", "lower", "wall_s on crank_export"),
    ("cranks.RectanglePlan.cells.calls", "count", "lower", "wall_s and peak_rss_mb on crank_export"),
    ("cranks.RectanglePlan.cells.self_s", "s", "lower", "wall_s and peak_rss_mb on crank_export"),
    ("cranks.RectanglePlan.cells.items", "count", "lower", "wall_s and peak_rss_mb on crank_export"),
    ("cranks.AffineMap2.apply.calls", "count", "lower", "wall_s on crank_export"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s over untraced wall_s"),
]

FIELDS = ("calls", "self_s", "items")

# Called once per partition or per step: aggregated, no span per call.
HOT = frozenset([
    "cranks.c_ls", "cranks.step_f", "ehrhart.box_decompose",
    "ehrhart.box_compose", "cranks.AffineMap2.apply", "congruence.is_prime",
    "congruence.residues_neg", "cranks.ehrhart_crank",
    "cranks.ehrhart_crank_closed_form",
])

POOL_MAP = "cli.pool_map"


def _function_metrics(field=None):
    """Keys <module>.<qualname> that LAYER_METRICS names with a field."""
    keys = []
    for name, _, _, _ in LAYER_METRICS:
        key, _, got = name.rpartition(".")
        if got in FIELDS and (field is None or got == field) and key not in keys:
            keys.append(key)
    return keys


def _namespaces():
    """Every namespace of the package that can bind a traced function:
    module globals, class dicts and module-level dicts such as method
    registries.  Yields (mapping, setter)."""
    for name, mod in list(sys.modules.items()):
        if name != "triparts" and not name.startswith("triparts."):
            continue
        ns = vars(mod)
        yield ns, ns.__setitem__
        for value in list(ns.values()):
            if isinstance(value, type) and value.__module__ == name:
                yield dict(vars(value)), (lambda k, v, cls=value: setattr(cls, k, v))
            elif isinstance(value, dict):
                yield value, value.__setitem__


def _resolve(key):
    """The object a key names, or None when it no longer exists."""
    module, _, qual = key.partition(".")
    obj = sys.modules.get("triparts." + module)
    for part in qual.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if hasattr(obj, "__dict__") else None
    return obj


class Tracer:
    """Context manager: wraps the traced functions while active."""

    def __init__(self):
        self.stats = {}     # key -> [calls, self_s, items]
        self.spans = []     # (name, job, start, end, parent span index)
        self.absent = []
        self.job = None     # index of the job being run, set by the caller
        self._stack = []    # open calls: [child seconds, span index]
        self._undo = []

    def __enter__(self):
        import triparts.cli  # noqa: F401  (loads every module that cli uses)
        for key in _function_metrics():
            if key == POOL_MAP:
                continue
            orig = _resolve(key)
            if orig is None:
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, orig)
            for ns, setter in _namespaces():
                for attr, value in list(ns.items()):
                    if value is orig:
                        setter(attr, wrapper)
                        self._undo.append((setter, attr, orig))
        pool_map = multiprocessing.pool.Pool.map
        setattr(multiprocessing.pool.Pool, "map", self._wrap(POOL_MAP, pool_map))
        self._undo.append((lambda k, v: setattr(multiprocessing.pool.Pool, k, v),
                           "map", pool_map))
        return self

    def __exit__(self, *exc):
        for setter, attr, orig in reversed(self._undo):
            setter(attr, orig)
        self._undo = []
        return False

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0])
        hot = key in HOT
        items = key in _function_metrics("items")
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent]
            if not hot:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
                if not hot:
                    spans[frame[1]] = (key, self.job, t0, t1, parent)
            if items:
                stat[2] += len(result)
            return result

        return wrapper

    def metrics(self):
        """{metric name: value} for every function metric of LAYER_METRICS;
        a function that no longer exists reads 0 and is listed in absent."""
        out = {}
        for name, _, _, _ in LAYER_METRICS:
            key, _, field = name.rpartition(".")
            if field in FIELDS:
                out[name] = self.stats.get(key, [0, 0.0, 0])[FIELDS.index(field)]
        return out
