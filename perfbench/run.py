"""The repository benchmark: regenerate the paper's quick preset and serve
a simulation mix, time it end to end and attribute it layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload quick-cold --seed 1 --seconds 10 --trace 0

Workloads (see ``README.md`` for why each exists):

* ``quick-cold`` -- ``python -m repro.bench --experiment all --quick``
  against fresh, empty measurement and simulation caches;
* ``quick-warm`` -- the same command against caches the same command
  filled at the start of the run (the fill is not timed);
* ``serve-mix`` -- a seeded list of serving simulation tasks through
  ``repro.serve.sweep.run_sim_tasks``.

Every timed iteration runs in a fresh process with every ``REPRO_*``
variable unset and no engine flag, so the program's defaults are what
is measured.  Iterations repeat until ``--seconds`` have passed (at
least ``MIN_ITERATIONS``, at most ``TIMED_BUDGET_S`` of them);
end-to-end metrics are medians over them.
``--trace 1`` adds one traced iteration and prints the per-layer
metrics instead.  Every operation's output is digested and checked
against ``reference.json``; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from digest import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch state (fresh caches), inside the checkout and never the
#: program's default ``.repro_cache``; each run deletes its own.
STATE = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: The program seed is ``--seed`` modulo this: outputs are checked
#: against digests recorded for each of these seeds.
REFERENCE_SEEDS = 4
WORKLOADS = ("quick-cold", "quick-warm", "serve-mix")
MIN_ITERATIONS = {"quick-cold": 2, "quick-warm": 5, "serve-mix": 5}
#: Timed iterations stop, even short of ``MIN_ITERATIONS``, once the next
#: one would end later than this after the first began: while the host is
#: slow, a quick-cold run keeps one iteration, so that the whole benchmark
#: still ends in its time budget.
TIMED_BUDGET_S = 64.0
#: Extra set-up-only processes per quick-cold run, so that set-up time
#: is a median of several.
COLD_SETUP_PROBES = 1
#: Every run ends well inside the 180 s a run may take.
RUN_BUDGET_S = 165.0

#: The JSON metrics: the same on every workload.  Per-operation
#: percentiles are printed as readable lines only (``readable_metrics``):
#: on a shared 2-core VM their run-to-run spread is too
#: wide for any allowed regression bound (README.md, "End-to-end").
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

EXPERIMENTS = (
    "table1", "fig6", "fig7", "fig8", "table2", "fig9", "fig10", "fig11",
    "fig12", "sec4.3", "fig13", "fig14", "fig15", "fig16", "fig17",
    "ext1", "ext2", "ext3", "ext_serving", "ext_cluster", "ext_tenants",
    "ext_reconfig",
)
#: Index families the quick preset and serve-mix build (``index.name``).
FAMILIES = (
    "ALEX", "ART", "BS", "BTree", "CuckooMap", "DynamicPGM", "FAST",
    "FITing", "FST", "IBTree", "PGM", "RBS", "RMI", "RMI3", "RS",
    "RobinHash", "Wormhole",
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in print order."""
    units = {
        "import_s": "s",
        "datasets.generate_s": "s",
        "datasets.generated": "count",
        "datasets.memo_hits": "count",
        "datasets.workload_s": "s",
        "runner.cells_total": "count",
        "runner.cells_unique": "count",
        "runner.memo_hits": "count",
        "runner.executed": "count",
        "runner.self_s": "s",
        "cache.get_s": "s",
        "cache.put_s": "s",
        "cache.hits": "count",
        "cache.misses": "count",
        "cache.hit_ratio": "ratio",
        "simcache.get_s": "s",
        "simcache.put_s": "s",
        "simcache.hits": "count",
        "simcache.misses": "count",
        "build.calls": "count",
        "build.s": "s",
        "build.distinct": "count",
        "build.duplicate_calls": "count",
        "build.duplicate_s": "s",
        "build.useful_ratio": "ratio",
        "measure.calls": "count",
        "measure.s": "s",
        "measure.lookups": "count",
        "measure.ns_per_lookup": "ns",
        "measure.ns_per_access": "ns",
        "measure.batched_calls": "count",
        "measure.scalar_calls": "count",
        "measure.replay_hits": "count",
        "measure.replay_misses": "count",
        "serve.tasks": "count",
        "serve.requests": "count",
        "serve.s": "s",
        "serve.ns_per_request": "ns",
        "serve.kernel_tasks": "count",
        "serve.loop_tasks": "count",
        "serve.s.open_loop": "s",
        "serve.s.cluster": "s",
        "serve.s.scenario": "s",
        "serve.memo_hits": "count",
        "serve.cache_hits": "count",
    }
    for family in FAMILIES:
        units["build.s." + family] = "s"
    for family in FAMILIES:
        units["measure.s." + family] = "s"
    for exp_id in EXPERIMENTS:
        units[f"experiment.{exp_id}.s"] = "s"
    units["report.self_s"] = "s"
    units["unattributed_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


class BenchError(Exception):
    """The benchmark itself could not run (not a program output error)."""


# -- environment --------------------------------------------------------


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# -- one process --------------------------------------------------------


class Runner:
    """Starts iterations in fresh processes, each with its own scratch
    directories under ``STATE``, all before ``deadline``."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        self.work = STATE / f"run-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self._n = 0

    def fresh_dir(self, name: str) -> Path:
        self._n += 1
        return self.work / f"{name}-{self._n}"

    def spawn(self, spec: dict) -> dict:
        """Run ``child.py`` once; durations are from process start."""
        out = self.fresh_dir("result")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next iteration")
        spec = dict(spec, out=str(out), families=FAMILIES,
                    experiments=EXPERIMENTS)
        t_spawn = time.monotonic()
        spec["t_spawn"] = t_spawn
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("an iteration ran past the time budget")
        finally:
            stop_group(proc)
        if code != 0:
            raise BenchError(f"an iteration exited with {code}")
        result = json.loads(out.read_text())
        if result.get("error"):
            print(f"program error: {result['error']}", file=sys.stderr)
        if result.get("t_setup_end") is None:
            raise BenchError("the program stopped before its first cell")
        result["wall_s"] = result["t_end"] - t_spawn
        result["setup_s"] = result["t_setup_end"] - t_spawn
        result["peak_rss_mb"] = result["rss_kb"] / 1024.0
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a child's process group (its pool workers
    too, if it timed out or the benchmark was stopped) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def quick_spec(seed: int, cache_dir: Path, jobs: int = 1, **extra) -> dict:
    argv = [
        "--experiment", "all", "--quick", "--seed", str(seed),
        "--jobs", str(jobs), "--cache-dir", str(cache_dir),
    ]
    spec = {"kind": "quick", "seed": seed, "argv": argv,
            "setup_only": False, "trace": False}
    spec.update(extra)
    return spec


def serve_spec(seed: int, **extra) -> dict:
    spec = {"kind": "serve", "seed": seed, "setup_only": False,
            "trace": False}
    spec.update(extra)
    return spec


def fill_cache(runner: Runner, seed: int, reference: dict) -> Path:
    """A cache dir filled by the same command (with two jobs, which the
    program keeps bit-identical), untimed and verified; ``Runner.close``
    deletes it with the rest of the run's scratch state."""
    cache = runner.fresh_dir("fill")
    _, failed = check(reference, runner.spawn(quick_spec(seed, cache, jobs=2)))
    if failed:
        raise BenchError(f"the cache fill has {failed} wrong outputs")
    return cache


# -- checking -----------------------------------------------------------


def load_reference(workload: str, seed: int) -> dict:
    kind = "serve" if workload == "serve-mix" else "quick"
    with open(REFERENCE) as f:
        ref = json.load(f)
    return ref[kind][str(seed)]


def check(reference: dict, result: dict):
    """``(attempted, failed)`` operations of one iteration."""
    return compare(reference, result.get("ops", {}))


# -- workloads ----------------------------------------------------------


def iterate(runner, make_spec, seconds, min_iters):
    """Timed iterations until ``seconds`` have passed and ``min_iters``
    have run, within ``TIMED_BUDGET_S`` (at least one)."""
    start = time.monotonic()
    results = [runner.spawn(make_spec())]
    while (
        len(results) < min_iters or time.monotonic() - start < seconds
    ) and (
        time.monotonic() - start + max(r["wall_s"] for r in results)
        <= TIMED_BUDGET_S
    ):
        results.append(runner.spawn(make_spec()))
    if not all(r["op_ms"] for r in results):
        raise BenchError("an iteration completed no operation")
    return results


def run_workload(workload, seed, seconds, trace, runner, reference):
    """``(timed results, set-up samples, traced result or None)``."""
    min_iters = MIN_ITERATIONS[workload]
    setups = []
    traced = None
    if workload == "quick-cold":
        def cold():
            return quick_spec(seed, runner.fresh_dir("cold"))

        results = iterate(runner, cold, seconds, min_iters)
        if trace:
            traced = runner.spawn(dict(cold(), trace=True))
        else:
            for _ in range(COLD_SETUP_PROBES):
                probe = runner.spawn(dict(cold(), setup_only=True))
                setups.append(probe["setup_s"])
    elif workload == "quick-warm":
        cache = fill_cache(runner, seed, reference)
        results = iterate(
            runner, lambda: quick_spec(seed, cache), seconds, min_iters
        )
        if trace:
            traced = runner.spawn(quick_spec(seed, cache, trace=True))
    else:
        results = iterate(runner, lambda: serve_spec(seed), seconds, min_iters)
        if trace:
            traced = runner.spawn(serve_spec(seed, trace=True))
    setups.extend(r["setup_s"] for r in results)
    return results, setups, traced


def percentile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results, setups) -> dict:
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in results),
        "setup_s": med(setups),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in results),
    }


def readable_metrics(workload, results) -> dict:
    """Per-operation metrics under the workload's own names (medians over
    iterations), printed for reading."""
    med = statistics.median

    def op_percentile(q):
        return med(percentile(r["op_ms"], q) for r in results), "ms"

    samples = (len(results[0]["op_ms"]), "count")
    if workload == "quick-cold":
        return {
            "cell_p50_ms": op_percentile(50),
            "cell_p95_ms": op_percentile(95),
            "cell_samples": samples,
        }
    if workload == "quick-warm":
        return {
            "cache_read_p50_ms": op_percentile(50),
            "cache_read_p95_ms": op_percentile(95),
            "cache_read_samples": samples,
        }
    return {
        "sim_requests_per_s": (
            med(r["requests"] / (sum(r["op_ms"]) / 1e3) for r in results),
            "1/s",
        ),
        "sim_task_p50_ms": op_percentile(50),
        "sim_task_p90_ms": op_percentile(90),
        "sim_task_p95_ms": op_percentile(95),
        "sim_task_samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "bench" / "__main__.py").is_file():
        print(f"no program to measure: {SRC} holds no repro package",
              file=sys.stderr)
        return 2
    # Stopping the benchmark unwinds through Runner.spawn and Runner.close,
    # which stop the running iteration and delete the scratch state.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    seed = args.seed % REFERENCE_SEEDS
    reference = load_reference(args.workload, seed)
    runner = Runner(started + RUN_BUDGET_S)
    try:
        results, setups, traced = run_workload(
            args.workload, seed, args.seconds, bool(args.trace), runner,
            reference,
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    checked = results + ([traced] if traced else [])
    attempted = failed = 0
    for r in checked:
        a, f = check(reference, r)
        attempted += a
        failed += f

    env = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "engines": results[0]["engines"],
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": seed,
        "iterations": len(results),
    }
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        layers = dict(traced["layers"])
        layers["trace_overhead"] = traced["wall_s"] / statistics.median(
            r["wall_s"] for r in results
        )
        if traced.get("unknown_families"):
            print("families not in FAMILIES: "
                  + ", ".join(traced["unknown_families"]))
        units = per_layer_units()
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        values = end_to_end(results, setups)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        readable = readable_metrics(args.workload, results)
        for name, (value, unit) in readable.items():
            print(f"{name:<24} {value:>14.4f} {unit}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"{'error_rate':<24} {error_rate:>14.4f} ratio "
          f"({failed} of {attempted} operations failed)")
    for name, m in metrics.items():
        print(f"{name:<24} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
