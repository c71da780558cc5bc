"""Parallel, cached simulation sweeps for the serving experiments.

The measurement grid already flows through picklable cells, a process
pool and a persistent cache (:mod:`repro.bench.parallel`); this module
gives the serving simulations the same treatment.  Each simulation an
experiment wants -- one open-loop run, one cluster replay, one tenancy
scenario -- is captured as a frozen *task* dataclass of scalars and
frozen model values: hashable (in-process memo), picklable (``--jobs``
fan-out) and encodable by :mod:`repro.codec`
(:func:`repro.bench.cache.sim_key` content keys for the persistent
:class:`~repro.bench.cache.SimResultCache`).  Workers rebuild arrival
processes, request keys, shard maps and fault schedules from the task's
seeds -- all pure functions -- so a task produces the identical result
record in any process, and :func:`run_sim_tasks` returns records aligned
with the input order regardless of completion order.

Determinism contract, inherited from the simulators: simulations are
byte-identical across serial runs, ``--jobs N`` and cache replay
(``tests/test_serve_sweep.py``).

Result records are plain dicts of JSON scalars: the codec forms of
:class:`ClusterRunStats` and :class:`TenancyRunStats`, whose accessors
-- ``availability``, ``summary``, ``to_metrics`` -- reproduce the
originals' values exactly, so experiments publish the same metrics
whether a run was simulated inline, pooled, or replayed from cache.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.codec import Codec, encode, omit_default
from repro.datasets.loader import make_dataset
from repro.memsim.counters import PerfCountersF
from repro.serve.arrivals import bursty_arrivals, poisson_arrivals
from repro.serve.cluster import ShardStats
from repro.serve.contention import MachineModel
from repro.serve.core import ServiceModel, simulate_open_loop
from repro.serve.faults import FaultConfig
from repro.serve.metrics import LatencySummary, summarize_result
from repro.serve.reconfig import ReconfigSpec
from repro.serve.router import RouterPolicy, ShardMap
from repro.serve.telemetry import TelemetryConfig

__all__ = [
    "OpenLoopTask",
    "ClusterTask",
    "ScenarioTask",
    "SimStats",
    "ClusterRunStats",
    "TenancyRunStats",
    "TenantRunStats",
    "SimRunnerStats",
    "run_sim_tasks",
    "open_loop_task",
    "cluster_task",
    "scenario_task",
    "clear_sim_results",
]

#: Per-process memo of executed/cached records, keyed by task.
_RESULTS: Dict["SimTask", dict] = {}


def clear_sim_results() -> None:
    """Reset the in-process simulation memo (mainly for tests)."""
    _RESULTS.clear()


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


class _SimTask:
    """What the task dataclasses below share.

    A task's identity is its codec encoding plus its ``kind``
    (:meth:`key_fields`, the input of
    :func:`repro.bench.cache.sim_key`).  Optional fields are omitted
    while unset, so telemetry-off and reconfig-off keys are bit-for-bit
    what they were before those fields existed.  Per-attempt traces are
    refused: task records are JSON aggregates sized for the persistent
    cache, and traces belong on inline ``simulate_*`` calls.
    """

    kind = ""

    def __post_init__(self):
        if self.telemetry is not None and self.telemetry.traces:
            raise ValueError(
                "sweep tasks do not support telemetry traces; call the "
                "simulate_* function inline to collect traces"
            )

    def key_fields(self) -> dict:
        return {"kind": self.kind, **encode(self)}

    def _service(self, counters) -> ServiceModel:
        return ServiceModel(
            PerfCountersF(**dict(counters)),
            fence=self.fence,
            machine=self.machine,
        )


@dataclass(frozen=True)
class OpenLoopTask(_SimTask):
    """One single-node open-loop simulation: counters + traffic + cores.

    The service model is rebuilt from the measured per-lookup counters
    (the only measurement fields :class:`ServiceModel` consumes) and the
    arrival process from ``(shape, rate, n, seed)`` -- pure functions,
    so the worker reproduces the parent's inputs exactly.
    """

    kind = "open_loop"

    counters: Tuple[Tuple[str, float], ...]
    fence: bool
    machine: MachineModel
    shape: str  # "poisson" or "bursty"
    rate_per_sec: float
    n_requests: int
    seed: int
    n_cores: int
    telemetry: Optional[TelemetryConfig] = omit_default(None)

    def run(self) -> dict:
        if self.shape == "poisson":
            arrivals = poisson_arrivals(
                self.rate_per_sec, self.n_requests, self.seed
            )
        elif self.shape == "bursty":
            arrivals = bursty_arrivals(
                self.rate_per_sec, self.n_requests, self.seed
            )
        else:
            raise ValueError(f"unknown arrival shape {self.shape!r}")
        result = simulate_open_loop(
            self._service(self.counters),
            arrivals,
            self.n_cores,
            telemetry=self.telemetry,
        )
        summary = summarize_result(result)
        record = {
            "summary": summary.to_dict(),
            "max_queue_depth": result.max_queue_depth,
            "total_steals": result.total_steals,
        }
        if result.telemetry is not None:
            record["telemetry"] = result.telemetry.to_dict()
        return record


@dataclass(frozen=True)
class ClusterTask(_SimTask):
    """One cluster replay: per-shard counters, routing, policy, faults.

    ``lookup_keys`` and ``shard_bounds`` are carried verbatim (the
    selector's public API accepts arbitrary key arrays and shard maps);
    arrivals regenerate from ``(rate, n, seed)``.
    """

    kind = "cluster"

    per_shard_counters: Tuple[Tuple[Tuple[str, float], ...], ...]
    fence: bool
    machine: MachineModel
    shard_bounds: Tuple[int, ...]
    lookup_keys: Tuple[int, ...]
    rate_per_sec: float
    n_requests: int
    seed: int
    n_replicas: int
    n_cores: int
    policy: RouterPolicy
    faults: Optional[FaultConfig]
    fault_horizon_ns: Optional[float]
    telemetry: Optional[TelemetryConfig] = omit_default(None)
    #: None (or a trigger-free spec, normalized away by
    #: :func:`cluster_task`) leaves the key exactly as before the field
    #: existed.
    reconfig: Optional[ReconfigSpec] = omit_default(None)

    def run(self) -> dict:
        from repro.serve.cluster import Cluster, simulate_cluster

        cluster = Cluster(
            shard_map=ShardMap(list(self.shard_bounds)),
            services=[self._service(c) for c in self.per_shard_counters],
            n_replicas=self.n_replicas,
            n_cores=self.n_cores,
            policy=self.policy,
            faults=self.faults,
            reconfig=self.reconfig,
        )
        arrivals = poisson_arrivals(
            self.rate_per_sec, self.n_requests, self.seed
        )
        result = simulate_cluster(
            cluster,
            arrivals,
            list(self.lookup_keys),
            fault_horizon_ns=self.fault_horizon_ns,
            telemetry=self.telemetry,
        )
        record = ClusterRunStats.from_result(result).to_dict()
        if result.telemetry is not None:
            record["telemetry"] = result.telemetry.to_dict()
        return record


@dataclass(frozen=True)
class ScenarioTask(_SimTask):
    """One tenancy scenario run: spec JSON + dataset + shard counters.

    The worker rebuilds the served key array from the dataset identity
    (exactly as measurement cells rebuild datasets from seeds) and the
    shard map as the equal-count split the experiments use, then runs
    :func:`repro.serve.tenancy.simulate_scenario`.
    """

    kind = "scenario"

    spec_json: str
    dataset: str
    n_keys: int
    seed: int
    key_bits: int
    per_shard_counters: Tuple[Tuple[Tuple[str, float], ...], ...]
    fence: bool
    machine: MachineModel
    telemetry: Optional[TelemetryConfig] = omit_default(None)

    def key_fields(self) -> dict:
        # The spec is keyed as an object under "scenario", not as text.
        fields = super().key_fields()
        fields["scenario"] = json.loads(fields.pop("spec_json"))
        return fields

    def run(self) -> dict:
        from repro.serve.scenario import ScenarioSpec
        from repro.serve.tenancy import simulate_scenario

        spec = ScenarioSpec.from_json(self.spec_json)
        ds = make_dataset(
            self.dataset, self.n_keys, seed=self.seed, key_bits=self.key_bits
        )
        shard_map = ShardMap.from_keys(ds.keys, spec.topology.n_shards)
        result = simulate_scenario(
            spec,
            [self._service(c) for c in self.per_shard_counters],
            ds.keys,
            shard_map=shard_map,
            telemetry=self.telemetry,
        )
        record = TenancyRunStats.from_result(result).to_dict()
        if result.telemetry is not None:
            record["telemetry"] = result.telemetry.to_dict()
        return record


SimTask = Union[OpenLoopTask, ClusterTask, ScenarioTask]


def open_loop_task(
    measurement,
    rate_per_sec: float,
    n_requests: int,
    seed: int,
    n_cores: int,
    machine: MachineModel = MachineModel(),
    fence: bool = False,
    shape: str = "poisson",
    telemetry: Optional[TelemetryConfig] = None,
) -> OpenLoopTask:
    """The task :func:`repro.serve.selector.evaluate_candidate` runs."""
    from repro.bench.cells import freeze_counters

    return OpenLoopTask(
        counters=freeze_counters(measurement.counters),
        fence=fence,
        machine=machine,
        shape=shape,
        rate_per_sec=rate_per_sec,
        n_requests=n_requests,
        seed=seed,
        n_cores=n_cores,
        telemetry=telemetry,
    )


def cluster_task(
    per_shard_measurements: Sequence,
    shard_map,
    lookup_keys: Sequence[int],
    rate_per_sec: float,
    n_requests: int,
    seed: int,
    n_replicas: int,
    n_cores: int,
    policy: RouterPolicy,
    faults: Optional[FaultConfig],
    fault_horizon_ns: Optional[float],
    machine: MachineModel = MachineModel(),
    fence: bool = False,
    telemetry: Optional[TelemetryConfig] = None,
    reconfig: Optional[ReconfigSpec] = None,
) -> ClusterTask:
    """The task one :func:`~repro.serve.cluster.simulate_cluster` run is.

    A ``reconfig`` that is None *or has no triggers* is dropped, so
    attaching a no-op spec never perturbs cache keys.
    """
    from repro.bench.cells import freeze_counters

    return ClusterTask(
        per_shard_counters=tuple(
            freeze_counters(m.counters) for m in per_shard_measurements
        ),
        fence=fence,
        machine=machine,
        shard_bounds=tuple(shard_map.lower_bounds),
        lookup_keys=tuple(int(k) for k in lookup_keys),
        rate_per_sec=rate_per_sec,
        n_requests=n_requests,
        seed=seed,
        n_replicas=n_replicas,
        n_cores=n_cores,
        policy=policy,
        faults=faults,
        fault_horizon_ns=fault_horizon_ns,
        telemetry=telemetry,
        reconfig=(
            reconfig if reconfig is not None and reconfig.enabled else None
        ),
    )


def scenario_task(
    spec,
    dataset: str,
    n_keys: int,
    seed: int,
    per_shard_measurements: Sequence,
    machine: MachineModel = MachineModel(),
    fence: bool = False,
    key_bits: int = 64,
    telemetry: Optional[TelemetryConfig] = None,
) -> ScenarioTask:
    """The task one :func:`~repro.serve.tenancy.simulate_scenario` run is."""
    from repro.bench.cells import freeze_counters

    return ScenarioTask(
        spec_json=spec.to_json(),
        dataset=dataset,
        n_keys=n_keys,
        seed=seed,
        key_bits=key_bits,
        per_shard_counters=tuple(
            freeze_counters(m.counters) for m in per_shard_measurements
        ),
        fence=fence,
        machine=machine,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimStats:
    """Queue statistics of an open-loop run record, shaped for
    :meth:`LatencySummary.to_metrics`'s ``result`` parameter."""

    max_queue_depth: int
    total_steals: int


def open_loop_summary(record: dict) -> Tuple[LatencySummary, SimStats]:
    """(summary, queue stats) view of an :class:`OpenLoopTask` record."""
    return (
        LatencySummary.from_dict(record["summary"]),
        SimStats(
            max_queue_depth=int(record["max_queue_depth"]),
            total_steals=int(record["total_steals"]),
        ),
    )


@dataclass
class ClusterRunStats(Codec):
    """Everything the experiments read off a :class:`~repro.serve.
    cluster.ClusterResult`, reconstructible from a cached JSON record.

    Its codec form is the cached record.  :meth:`to_metrics` is the one
    publisher of cluster metrics (:meth:`ClusterResult.to_metrics`
    delegates here), so a replayed record publishes exactly what a
    fresh run does.
    """

    requests: int
    completed: int
    failed: int
    total_retries: int
    total_hedges: int
    crashes: int
    slow_events: int
    makespan_ns: float
    summary: Optional[LatencySummary]
    shard_stats: List[ShardStats]
    #: Reconfig topology outcome (static runs: 1 epoch, initial counts).
    #: ``final_replicas`` 0 marks a pre-reconfig record, whose replica
    #: count is unrecoverable; the gauge is skipped for those.
    epoch_count: int = 1
    final_shards: int = 0
    final_replicas: int = 0

    def __post_init__(self):
        # Records written before the reconfig fields existed are static
        # runs: the final shard count is the initial one.
        if not self.final_shards:
            self.final_shards = len(self.shard_stats)

    @property
    def availability(self) -> float:
        return self.completed / self.requests if self.requests else 1.0

    @property
    def max_queue_depth(self) -> int:
        return max((s.max_queue_depth for s in self.shard_stats), default=0)

    @classmethod
    def from_result(cls, result) -> "ClusterRunStats":
        return cls(
            requests=len(result.records),
            completed=result.completed,
            failed=result.failed,
            total_retries=result.total_retries,
            total_hedges=result.total_hedges,
            crashes=result.crashes,
            slow_events=result.slow_events,
            makespan_ns=result.makespan_ns,
            summary=result.summary() if result.completed else None,
            shard_stats=list(result.shard_stats),
            epoch_count=result.epoch_count,
            final_shards=result.final_shards,
            final_replicas=result.final_replicas,
        )

    def to_metrics(self, registry=None, prefix: str = "serve.cluster") -> None:
        """Publish run counters into an obs metrics registry.

        Per-shard queue-depth maxima and fault/retry counts land in the
        same ``metrics.json`` snapshot as every other subsystem, and the
        availability gauge keeps the *worst* value over repeated runs.
        """
        from repro.obs.metrics import get_registry

        reg = registry if registry is not None else get_registry()
        reg.counter(f"{prefix}.requests").inc(self.requests)
        reg.counter(f"{prefix}.completed").inc(self.completed)
        reg.counter(f"{prefix}.failed").inc(self.failed)
        reg.counter(f"{prefix}.retries").inc(self.total_retries)
        reg.counter(f"{prefix}.hedges").inc(self.total_hedges)
        reg.counter(f"{prefix}.faults.crashes").inc(self.crashes)
        reg.counter(f"{prefix}.faults.slow").inc(self.slow_events)
        reg.gauge(f"{prefix}.availability.min").set_min(self.availability)
        # Topology gauges: the autoscaler's inputs/outputs are observable
        # even for static runs (final == initial there).
        reg.gauge(f"{prefix}.shards").set(float(self.final_shards))
        if self.final_replicas > 0:
            reg.gauge(f"{prefix}.replicas").set(float(self.final_replicas))
        reg.counter(f"{prefix}.epochs").inc(self.epoch_count)
        depth_hist = reg.histogram(f"{prefix}.shard_queue_depth.max")
        for st in self.shard_stats:
            depth_hist.observe(st.max_queue_depth)
            reg.gauge(f"{prefix}.shard{st.shard}.queue_depth.max").set_max(
                st.max_queue_depth
            )
            reg.counter(f"{prefix}.shard{st.shard}.retries").inc(st.retries)
            reg.counter(f"{prefix}.shard{st.shard}.faults").inc(
                st.crashes + st.slow_events
            )


@dataclass
class TenantRunStats(Codec):
    """One tenant's slice of a scenario record (mirrors ``TenantStats``)."""

    tenant: int
    name: str
    slo_class: str
    p99_slo_ns: Optional[float]
    requests: int
    completed: int
    failed: int
    shed: int
    retries: int
    hedges: int
    summary: Optional[LatencySummary]
    requests_over_slo: int

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def goodput(self) -> float:
        return self.completed / self.requests if self.requests else 1.0

    def slo_met(self) -> Optional[bool]:
        if self.p99_slo_ns is None or self.summary is None:
            return None
        return self.summary.meets(self.p99_slo_ns)


@dataclass
class TenancyRunStats(Codec):
    """Everything the experiments read off a :class:`~repro.serve.
    tenancy.TenancyResult`, reconstructible from a cached JSON record
    (its codec form); :meth:`to_metrics` is the one tenancy-metrics
    publisher."""

    requests: int
    total_shed: int
    makespan_ns: float
    summary: Optional[LatencySummary]
    tenants: List[TenantRunStats] = field(default_factory=list)
    #: Cluster topology outcome (see :class:`ClusterRunStats`); lets
    #: experiments report reconfig transitions off cached records.
    epoch_count: int = 1
    final_shards: int = 0
    final_replicas: int = 0

    def by_name(self, name: str) -> TenantRunStats:
        for ts in self.tenants:
            if ts.name == name:
                return ts
        raise KeyError(name)

    @classmethod
    def from_result(cls, result) -> "TenancyRunStats":
        return cls(
            requests=len(result.cluster.records),
            total_shed=result.total_shed,
            makespan_ns=result.cluster.makespan_ns,
            summary=(
                result.summary() if result.cluster.completed else None
            ),
            tenants=[
                TenantRunStats(
                    tenant=ts.tenant,
                    name=ts.name,
                    slo_class=ts.slo_class,
                    p99_slo_ns=ts.p99_slo_ns,
                    requests=ts.requests,
                    completed=ts.completed,
                    failed=ts.failed,
                    shed=ts.shed,
                    retries=ts.retries,
                    hedges=ts.hedges,
                    summary=ts.summary(),
                    requests_over_slo=ts.requests_over_slo,
                )
                for ts in result.tenants
            ],
            epoch_count=result.cluster.epoch_count,
            final_shards=result.cluster.final_shards,
            final_replicas=result.cluster.final_replicas,
        )

    def to_metrics(self, registry=None, prefix: str = "serve.tenancy") -> None:
        """Publish per-tenant latency/violation/shed counters into an
        obs metrics registry, mirroring :meth:`ClusterRunStats.to_metrics`.
        """
        from repro.obs.metrics import get_registry

        reg = registry if registry is not None else get_registry()
        reg.counter(f"{prefix}.requests").inc(self.requests)
        reg.counter(f"{prefix}.shed").inc(self.total_shed)
        for ts in self.tenants:
            p = f"{prefix}.tenant.{ts.name}"
            reg.counter(f"{p}.requests").inc(ts.requests)
            reg.counter(f"{p}.completed").inc(ts.completed)
            reg.counter(f"{p}.failed").inc(ts.failed)
            reg.counter(f"{p}.shed").inc(ts.shed)
            reg.counter(f"{p}.retries").inc(ts.retries)
            if ts.summary is not None:
                reg.gauge(f"{p}.latency.p50_ns").set_max(ts.summary.p50_ns)
                reg.gauge(f"{p}.latency.p99_ns").set_max(ts.summary.p99_ns)
            if ts.p99_slo_ns is not None:
                reg.counter(f"{p}.slo.runs").inc()
                reg.counter(f"{p}.slo.requests_over").inc(
                    ts.requests_over_slo
                )
                if ts.slo_met() is False:
                    reg.counter(f"{p}.slo.violations").inc()


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


@dataclass
class SimRunnerStats:
    """What one :func:`run_sim_tasks` call did (mirrors ``RunnerStats``)."""

    total_tasks: int = 0
    unique_tasks: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0


def _execute_task(task: SimTask) -> dict:
    """Worker entry point: always computes."""
    return task.run()


def run_sim_tasks(
    tasks: Sequence[SimTask],
    jobs: Optional[int] = None,
    cache=None,
    stats: Optional[SimRunnerStats] = None,
) -> List[dict]:
    """Resolve every task; return records aligned with the input order.

    The resolution ladder mirrors :func:`repro.bench.parallel.run_cells`:
    per-process memo, then the persistent ``cache`` (a
    :class:`~repro.bench.cache.SimResultCache`), then execution --
    inline for ``jobs in (None, 1)`` or a single pending task, else on a
    ``ProcessPoolExecutor`` whose ``map`` preserves dispatch order, so
    completion order never leaks into results, memo insertion, or cache
    writes.

    Every call also publishes its resolution split to the global obs
    metrics registry (``serve.sweep.cache.{hits,misses,executed}`` for
    the persistent cache, ``serve.sweep.memo.hits`` for the in-process
    memo), so a warm sweep is distinguishable from a cold one in
    ``metrics.json``.
    """
    from repro.obs.metrics import get_registry

    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    n_jobs = 1 if jobs is None else jobs
    start = time.perf_counter()
    if stats is None:
        stats = SimRunnerStats()
    stats.total_tasks += len(tasks)
    stats.jobs = max(stats.jobs, n_jobs)

    unique: List[SimTask] = []
    seen = set()
    for task in tasks:
        if task not in seen:
            seen.add(task)
            unique.append(task)
    stats.unique_tasks += len(unique)

    memo_hits = 0
    cache_hits = 0
    pending: List[SimTask] = []
    for task in unique:
        if task in _RESULTS:
            memo_hits += 1
            continue
        if cache is not None:
            record = cache.get(task)
            if record is not None:
                cache_hits += 1
                _RESULTS[task] = record
                continue
        pending.append(task)
    stats.memo_hits += memo_hits
    stats.cache_hits += cache_hits
    reg = get_registry()
    reg.counter("serve.sweep.memo.hits").inc(memo_hits)
    reg.counter("serve.sweep.cache.hits").inc(cache_hits)
    if cache is not None:
        # Misses against the *persistent* cache: looked up, not found.
        reg.counter("serve.sweep.cache.misses").inc(len(pending))
    reg.counter("serve.sweep.cache.executed").inc(len(pending))

    if pending:
        if n_jobs == 1 or len(pending) == 1:
            records = map(_execute_task, pending)
        else:
            workers = min(n_jobs, len(pending), os.cpu_count() or 1)
            pool = ProcessPoolExecutor(max_workers=workers)
            records = pool.map(_execute_task, pending)
        with_pool = n_jobs > 1 and len(pending) > 1
        try:
            for task, record in zip(pending, records):
                stats.executed += 1
                _RESULTS[task] = record
                if cache is not None:
                    cache.put(task, record)
        finally:
            if with_pool:
                pool.shutdown()

    stats.wall_seconds += time.perf_counter() - start
    return [_RESULTS[task] for task in tasks]
