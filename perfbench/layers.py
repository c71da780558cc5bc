"""Per-layer tracing from outside the program.

A :class:`LayerTracer` wraps the public functions of each layer of the
``repro`` package -- every module binding of each function, not only the
defining module's, so ``from x import f`` call sites are traced too --
and records one span per call.  Spans nest through a stack, so a layer's
*self time* is its span time minus the time its child spans cover, and
the self times of all layers plus the unattributed remainder sum to the
traced wall exactly.

Only the traced run uses this module; end-to-end metrics always come
from untraced runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

from servemix import requests as task_requests

#: Layers whose self times partition the traced wall (with
#: ``import_s`` and ``unattributed_s``).
SUM_LAYERS = (
    "datasets.generate_s",
    "datasets.workload_s",
    "runner.self_s",
    "cache.get_s",
    "cache.put_s",
    "simcache.get_s",
    "simcache.put_s",
    "build.s",
    "measure.s",
    "serve.s",
    "report.self_s",
)

_SERVE_KINDS = {
    "OpenLoopTask": "open_loop",
    "ClusterTask": "cluster",
    "ScenarioTask": "scenario",
}


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class LayerTracer:
    """Span stack plus per-layer self times and counts."""

    def __init__(self):
        self._stack = []  # [start_ns, child_ns] per open span
        self.self_ns = defaultdict(int)
        self.counts = Counter()
        self.family_ns = defaultdict(int)  # "build.s.RMI" -> ns
        self.experiment_ns = {}
        self._build_keys = set()
        self._datasets = {}
        self._serve_depth = 0
        self._kernel_hits = 0
        self._registry = None
        self._registry_base = None

    # -- spans ---------------------------------------------------------

    def _open(self):
        self._stack.append([time.perf_counter_ns(), 0])

    def _close(self, layer):
        end = time.perf_counter_ns()
        start, child = self._stack.pop()
        total = end - start
        self.self_ns[layer] += total - child
        if self._stack:
            self._stack[-1][1] += total
        return total, total - child

    def _span(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer)

        return wrapper

    # -- layer wrappers ------------------------------------------------

    def _make_dataset(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (a["name"], a["n_keys"], a["seed"], a["key_bits"])
            self._open()
            try:
                ds = fn(*args, **kwargs)
            finally:
                self._close("datasets.generate_s")
            # A memo hit hands back the very object an earlier call built.
            if self._datasets.get(key) is ds:
                self.counts["datasets.memo_hits"] += 1
            else:
                self.counts["datasets.generated"] += 1
                self._datasets[key] = ds
            return ds

        return wrapper

    def _run_cells(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open()
            try:
                results, stats = fn(*args, **kwargs)
            finally:
                self._close("runner.self_s")
            self.counts["runner.cells_total"] += stats.total_cells
            self.counts["runner.cells_unique"] += stats.unique_cells
            self.counts["runner.memo_hits"] += stats.memo_hits
            self.counts["runner.executed"] += stats.executed
            return results, stats

        return wrapper

    def _cache_get(self, prefix, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open()
            try:
                value = fn(*args, **kwargs)
            finally:
                self._close(prefix + ".get_s")
            self.counts[prefix + (".misses" if value is None else ".hits")] += 1
            return value

        return wrapper

    def _build_index(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            ds = a["dataset"]
            key = (
                a["index_name"],
                _freeze(a["config"] or {}),
                ds.name,
                ds.n,
                ds.seed,
                ds.key_bits,
            )
            self._open()
            try:
                built = fn(*args, **kwargs)
            finally:
                total, own = self._close("build.s")
            self.counts["build.calls"] += 1
            if key in self._build_keys:
                self.counts["build.duplicate_calls"] += 1
                self.counts["build.duplicate_ns"] += own
            else:
                self._build_keys.add(key)
            self.family_ns["build.s." + built.index.name] += own
            return built

        return wrapper

    def _measure(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            n_work = len(a["workload"].keys_py)
            lookups = a["n_lookups"] + min(a["warmup"], max(n_work, 1))
            self._open()
            try:
                m = fn(*args, **kwargs)
            finally:
                total, own = self._close("measure.s")
            self.counts["measure.calls"] += 1
            self.counts["measure.lookups"] += lookups
            self.counts["measure.accesses"] += round(m.counters.reads * lookups)
            self.family_ns["measure.s." + m.index] += own
            return m

        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lindley(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not None:
                self._kernel_hits += 1
            return result

        return wrapper

    def _serve(self, kind, fn):
        """Task runs and direct ``simulate_*`` calls: the serving layer.

        Only the outermost serving span of a nest counts as one task
        (a task's ``run`` calls ``simulate_*`` itself).
        """

        sig = inspect.signature(fn)
        requests = _REQUESTS[fn.__name__]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._serve_depth == 0
            kernel0 = self._kernel_hits
            self._serve_depth += 1
            self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._serve_depth -= 1
                total, _ = self._close("serve.s")
            if outer:
                self.family_ns["serve.s." + kind] += total
                self.counts["serve.executed"] += 1
                if self._kernel_hits > kernel0:
                    self.counts["serve.kernel_tasks"] += 1
                else:
                    self.counts["serve.loop_tasks"] += 1
                self.counts["serve.requests"] += requests(
                    sig.bind(*args, **kwargs).arguments
                )
            return result

        return wrapper

    def _run_sim_tasks(self, fn):
        @functools.wraps(fn)
        def wrapper(tasks, *args, **kwargs):
            self.counts["serve.tasks"] += len(tasks)
            self._open()
            try:
                return fn(tasks, *args, **kwargs)
            finally:
                self._close("serve.s")

        return wrapper

    def _experiment(self, exp_id, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                total, _ = self._close("report.self_s")
                self.experiment_ns[exp_id] = (
                    self.experiment_ns.get(exp_id, 0) + total
                )

        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every layer function at every module binding.

        Call after the program's modules are imported and before it
        runs.  Modules imported later bind the wrappers through their
        ``from ... import`` statements.
        """
        import repro.bench.__main__  # noqa: F401  (the CLI's import graph)
        from repro.bench import cache, harness, parallel
        from repro.bench.experiments import EXPERIMENTS
        from repro.datasets import loader, workload
        from repro.obs.metrics import get_registry
        from repro.serve import cluster, core, fastsim, sweep, tenancy

        targets = [
            (loader.make_dataset, self._make_dataset),
            (workload.make_workload,
             lambda f: self._span("datasets.workload_s", f)),
            (parallel.run_cells, self._run_cells),
            (parallel.collect_cells,
             lambda f: self._span("runner.self_s", f)),
            (harness.build_index, self._build_index),
            (harness.measure, self._measure),
            (harness._measure_batched,
             lambda f: self._count("measure.batched_calls", f)),
            (sweep.run_sim_tasks, self._run_sim_tasks),
            (core.simulate_open_loop,
             lambda f: self._serve("open_loop", f)),
            (core.simulate_closed_loop,
             lambda f: self._serve("open_loop", f)),
            (cluster.simulate_cluster, lambda f: self._serve("cluster", f)),
            (tenancy.simulate_scenario,
             lambda f: self._serve("scenario", f)),
            (fastsim.lindley_open_loop, self._lindley),
        ]
        replacements = {id(orig): make(orig) for orig, make in targets}
        originals = {id(orig): orig for orig, _ in targets}
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and value is originals[id(value)]:
                    setattr(module, attr, replacements[id(value)])

        for cls, prefix in (
            (cache.MeasurementCache, "cache"),
            (cache.SimResultCache, "simcache"),
        ):
            cls.get = self._cache_get(prefix, cls.get)
            cls.put = self._span(prefix + ".put_s", cls.put)
        for cls_name, kind in _SERVE_KINDS.items():
            cls = getattr(sweep, cls_name)
            cls.run = self._serve(kind, cls.run)
        for exp_id, fn in list(EXPERIMENTS.items()):
            EXPERIMENTS[exp_id] = self._experiment(exp_id, fn)

        self._registry = get_registry()
        self._registry_base = self._registry_counts()

    def _registry_counts(self):
        reg = self._registry
        return {
            name: reg.counter(name).value
            for name in (
                "harness.replay.hits",
                "harness.replay.misses",
                "serve.sweep.memo.hits",
                "serve.sweep.cache.hits",
            )
        }

    # -- results -------------------------------------------------------

    def metrics(self, wall_s, import_s, families, experiments):
        """Every per-layer metric, in seconds, counts and ratios."""
        def s(ns):
            return ns / 1e9

        c = self.counts
        out = {"import_s": import_s}
        for layer in SUM_LAYERS:
            out[layer] = s(self.self_ns[layer])
        regs = self._registry_counts()
        delta = {k: regs[k] - self._registry_base[k] for k in regs}

        out["datasets.generated"] = c["datasets.generated"]
        out["datasets.memo_hits"] = c["datasets.memo_hits"]
        for name in ("cells_total", "cells_unique", "memo_hits", "executed"):
            out["runner." + name] = c["runner." + name]
        for prefix in ("cache", "simcache"):
            out[prefix + ".hits"] = c[prefix + ".hits"]
            out[prefix + ".misses"] = c[prefix + ".misses"]
        looked = c["cache.hits"] + c["cache.misses"]
        out["cache.hit_ratio"] = c["cache.hits"] / looked if looked else 0.0

        calls = c["build.calls"]
        out["build.calls"] = calls
        out["build.distinct"] = len(self._build_keys)
        out["build.duplicate_calls"] = c["build.duplicate_calls"]
        out["build.duplicate_s"] = s(c["build.duplicate_ns"])
        out["build.useful_ratio"] = (
            len(self._build_keys) / calls if calls else 0.0
        )

        measure_ns = self.self_ns["measure.s"]
        out["measure.calls"] = c["measure.calls"]
        out["measure.lookups"] = c["measure.lookups"]
        out["measure.ns_per_lookup"] = (
            measure_ns / c["measure.lookups"] if c["measure.lookups"] else 0.0
        )
        out["measure.ns_per_access"] = (
            measure_ns / c["measure.accesses"] if c["measure.accesses"] else 0.0
        )
        out["measure.batched_calls"] = c["measure.batched_calls"]
        out["measure.scalar_calls"] = (
            c["measure.calls"] - c["measure.batched_calls"]
        )
        out["measure.replay_hits"] = delta["harness.replay.hits"]
        out["measure.replay_misses"] = delta["harness.replay.misses"]

        serve_ns = self.self_ns["serve.s"]
        out["serve.tasks"] = c["serve.tasks"]
        out["serve.requests"] = c["serve.requests"]
        out["serve.ns_per_request"] = (
            serve_ns / c["serve.requests"] if c["serve.requests"] else 0.0
        )
        out["serve.kernel_tasks"] = c["serve.kernel_tasks"]
        out["serve.loop_tasks"] = c["serve.loop_tasks"]
        for kind in sorted(set(_SERVE_KINDS.values())):
            out["serve.s." + kind] = s(self.family_ns["serve.s." + kind])
        out["serve.memo_hits"] = delta["serve.sweep.memo.hits"]
        out["serve.cache_hits"] = delta["serve.sweep.cache.hits"]

        for family in families:
            out["build.s." + family] = s(self.family_ns["build.s." + family])
            out["measure.s." + family] = s(
                self.family_ns["measure.s." + family]
            )
        for exp_id in experiments:
            out[f"experiment.{exp_id}.s"] = s(self.experiment_ns.get(exp_id, 0))

        attributed = import_s + sum(out[layer] for layer in SUM_LAYERS)
        out["unattributed_s"] = wall_s - attributed
        return out

    def unknown_families(self, families):
        """Index families traced but missing from ``families``."""
        seen = {k.split(".", 2)[2] for k in self.family_ns
                if k.startswith(("build.s.", "measure.s."))}
        return sorted(seen - set(families))


#: Simulated request count of one serving call, from its bound arguments.
_REQUESTS = {
    "run": lambda a: task_requests(a["self"]),
    "simulate_open_loop": lambda a: len(a["arrivals_ns"]),
    "simulate_cluster": lambda a: len(a["arrivals_ns"]),
    "simulate_closed_loop": lambda a: a["n_requests"],
    "simulate_scenario": lambda a: sum(
        t.arrivals.n_requests for t in a["spec"].tenants
    ),
}
