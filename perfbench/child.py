"""One timed iteration of a workload, in its own process.

``run.py`` starts this script with a JSON spec as its only argument and
reads the JSON result it writes.  Times are ``time.monotonic()``
readings, which share one clock across processes, so the parent turns
them into durations from the moment it started this process.

Spec keys: ``kind`` (``quick`` or ``serve``), ``seed``, ``argv`` (the
CLI arguments, ``quick`` only), ``setup_only`` (stop when the first cell
is about to resolve), ``trace`` (wrap every layer, see ``layers.py``),
``t_spawn``, ``families``, ``experiments`` and ``out`` (result path).
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


class SetupDone(Exception):
    """Raised at the first cell when only set-up is being timed."""


def _environment() -> dict:
    """The resolved default engines and the numpy version in use."""
    import numpy

    from repro.memsim.engine import default_engine_name
    from repro.serve.fastsim import resolve_serve_engine

    return {
        "engines": {
            "memsim": default_engine_name(),
            "serve": resolve_serve_engine(),
        },
        "numpy": numpy.__version__,
    }


def _tracer(spec):
    if not spec["trace"]:
        return None
    from layers import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    return tracer


def run_quick(spec: dict, result: dict) -> None:
    import repro.bench.__main__ as cli

    t_import = time.monotonic()
    tracer = _tracer(spec)
    grid = {}
    run_cells = cli.run_cells

    def first_cell(cells, *args, **kwargs):
        grid["setup_end"] = time.monotonic()
        if spec["setup_only"]:
            raise SetupDone
        grid["run"] = (cells,) + tuple(run_cells(cells, *args, **kwargs))
        return grid["run"][1:]

    cli.run_cells = first_cell
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(spec["argv"])
        if code != 0:
            result["error"] = f"the CLI exited with {code}"
    except SetupDone:
        pass
    except Exception:  # the run failed: its missing outputs count as failures
        result["error"] = traceback.format_exc()
    t_end = time.monotonic()

    from digest import cell_id, measurement_digest, report_digests

    result.update(
        t_import=t_import,
        t_setup_end=grid.get("setup_end"),
        t_end=t_end,
        **_environment(),
    )
    if spec["setup_only"]:
        return
    cells = {}
    op_ms = []
    if "run" in grid:
        cell_list, measurements, stats = grid["run"]
        for cell, m in zip(cell_list, measurements):
            key = cell_id(cell)
            if key not in cells:
                cells[key] = measurement_digest(m)
        # Executed cells carry their run time, cache hits their read time.
        op_ms = [wall_ns / 1e6 for _, _, wall_ns, _ in stats.worker_cells]
    result["ops"] = {"cells": cells, "reports": report_digests(out.getvalue())}
    result["op_ms"] = op_ms
    if tracer is not None:
        _trace_metrics(spec, result, tracer, t_import, t_end)


def run_serve(spec: dict, result: dict) -> None:
    from repro.serve.sweep import run_sim_tasks

    import servemix

    t_import = time.monotonic()
    tracer = _tracer(spec)
    if tracer is not None:
        # The wrappers replaced the module binding imported above.
        from repro.serve.sweep import run_sim_tasks
    seed = spec["seed"]
    tasks = servemix.tasks(seed, servemix.measurements(seed))
    t_setup_end = time.monotonic()
    records = []
    op_ms = []
    error = None
    for task in tasks:
        start = time.perf_counter()
        try:
            record = run_sim_tasks([task], jobs=1)[0]
        except Exception:  # counted as a failed task
            record = None
            error = error or traceback.format_exc()
        op_ms.append((time.perf_counter() - start) * 1e3)
        records.append(record)
    t_end = time.monotonic()

    from digest import record_digest

    result.update(
        t_import=t_import,
        t_setup_end=t_setup_end,
        t_end=t_end,
        error=error,
        op_ms=op_ms,
        requests=sum(servemix.requests(t) for t in tasks),
        ops={
            "tasks": {
                f"t{i:03d}": record_digest(r)
                for i, r in enumerate(records)
                if r is not None
            }
        },
        **_environment(),
    )
    if tracer is not None:
        _trace_metrics(spec, result, tracer, t_import, t_end)


def _trace_metrics(spec, result, tracer, t_import, t_end) -> None:
    wall = t_end - spec["t_spawn"]
    result["layers"] = tracer.metrics(
        wall, t_import - spec["t_spawn"], spec["families"], spec["experiments"]
    )
    result["unknown_families"] = tracer.unknown_families(spec["families"])


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {"error": None}
    {"quick": run_quick, "serve": run_serve}[spec["kind"]](spec, result)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tmp = spec["out"] + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, spec["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
