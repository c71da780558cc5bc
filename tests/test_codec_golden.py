"""Golden pin of every serialized form the caches and reports depend on.

``tests/data/golden_codec.json`` holds, for a representative corpus,
the canonical JSON and content keys of scenario and reconfiguration
specs, a telemetry series and a tenant trace; the measurement-cache
``cache_key`` of the golden cells; the ``scenario_key`` of the specs;
the ``sim_key`` of open-loop, cluster and scenario tasks with and
without telemetry and reconfiguration; and the canonical bytes of one
cluster and one tenancy result record.  Every spec is also pinned after
one JSON round trip, so a change in decode-time coercion shows.

The file was generated once and is never rewritten to make this test
pass: a mismatch means a cache key or stored record changed, and every
existing cache entry would go cold (or, worse, replay stale results).
To inspect a mismatch, ``PYTHONPATH=src python tests/test_codec_golden.py``
prints the differing entries.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.bench.cache import cache_key, scenario_key, sim_key
from repro.bench.experiments.ext_reconfig import reconfig_plan
from repro.bench.experiments.ext_tenants import ADMISSION, day_spec, flash_spec
from repro.bench.cells import MeasureCell, freeze_config
from repro.datasets.loader import make_dataset
from repro.memsim.counters import PerfCountersF
from repro.serve.contention import MachineModel
from repro.serve.faults import FaultConfig
from repro.serve.reconfig import (
    AutoscaleSpec,
    MergeSpec,
    RebuildSpec,
    ReconfigSpec,
    SplitSpec,
)
from repro.serve.router import RouterPolicy, ShardMap, request_keys
from repro.serve.scenario import (
    AdmissionSpec,
    ArrivalSpec,
    KeySpaceSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
)
from repro.serve.sweep import (
    clear_sim_results,
    cluster_task,
    open_loop_task,
    run_sim_tasks,
    scenario_task,
)
from repro.serve.telemetry import TelemetryConfig, TimeSeries, WindowStats
from repro.serve.trace import TenantTrace

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "data", "golden_codec.json")
CELLS_PATH = os.path.join(HERE, "data", "golden_measurements.json")

N_KEYS = 2000
SEED = 0


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _Measurement:
    """Duck-typed measurement: the tasks read only ``counters``."""

    def __init__(self, instructions: float, llc_misses: float):
        self.counters = PerfCountersF(
            instructions=instructions,
            llc_misses=llc_misses,
            l1_hits=20.0,
            branch_misses=3.0,
        )


def _per_shard(n_shards: int = 2):
    pool = [_Measurement(300.0, 2.0), _Measurement(450.0, 6.5)]
    return [pool[i % 2] for i in range(n_shards)]


def _keys():
    return make_dataset("amzn", N_KEYS, seed=SEED).keys


def _shard_map(n_shards: int = 2):
    return ShardMap.from_keys(_keys(), n_shards)


def _rich_spec() -> ScenarioSpec:
    """Every arrival shape, a hot key space, admission on, policy and
    faults off their defaults, a fault horizon and a reconfig plan."""
    base = ScenarioSpec(
        name="probe",
        tenants=(
            TenantSpec(
                name="t", arrivals=ArrivalSpec(rate_per_sec=1e5, n_requests=2)
            ),
        ),
    )
    # The field defaults' types are the policy/fault types a spec holds.
    policy = type(base.policy)(
        hedge_after_ns=5e4,
        max_attempts=3,
        backoff_base_ns=2.5e4,
        backoff_cap_ns=4e5,
        batch_window_ns=100.0,
    )
    faults = type(base.faults)(
        crash_mttf_ns=1e7,
        crash_mttr_ns=1e6,
        slow_mttf_ns=2e7,
        slow_mttr_ns=3e6,
        slow_factor=5.5,
        seed=9,
    )
    reconfig = ReconfigSpec(
        splits=(SplitSpec(at_ns=1.5e6, shard=0, at_key=123456789),),
        merges=(MergeSpec(at_ns=4e6, shard=1),),
        rebuilds=(
            RebuildSpec(
                at_ns=2e6, shard=1, replica=0, build_ns=3e5, speedup=1.25
            ),
        ),
        autoscale=AutoscaleSpec(
            interval_ns=5e5,
            up_depth=6,
            down_depth=1,
            min_replicas=2,
            max_replicas=4,
            up_p99_ns=7.5e4,
        ),
    )
    return dataclasses.replace(
        base,
        name="rich",
        tenants=(
            TenantSpec(
                name="gold",
                slo_class="gold",
                arrivals=ArrivalSpec(
                    rate_per_sec=5e5,
                    n_requests=300,
                    seed=1,
                    shape="diurnal",
                    params=(("peak_to_trough", 2.5), ("period_requests", 60)),
                ),
                keyspace=KeySpaceSpec(seed=1),
                p99_slo_ns=4e6,
            ),
            TenantSpec(
                name="silver",
                slo_class="silver",
                arrivals=ArrivalSpec(
                    rate_per_sec=2e5,
                    n_requests=200,
                    seed=2,
                    shape="bursty",
                    params=(
                        ("burst_factor", 6.0),
                        ("burst_fraction", 0.25),
                        ("period_requests", 40),
                    ),
                ),
                keyspace=KeySpaceSpec(lo_frac=0.5, hi_frac=1.0, seed=2),
            ),
            TenantSpec(
                name="bronze",
                slo_class="bronze",
                arrivals=ArrivalSpec(
                    rate_per_sec=3e5,
                    n_requests=400,
                    seed=3,
                    shape="flash",
                    params=(
                        ("spike_factor", 9.0),
                        ("spike_start_request", 50),
                        ("spike_len_requests", 120),
                    ),
                ),
                keyspace=KeySpaceSpec(
                    lo_frac=0.0, hi_frac=0.5, hot_theta=0.9, seed=3
                ),
                p99_slo_ns=9e6,
            ),
            TenantSpec(
                name="steady",
                slo_class="silver",
                arrivals=ArrivalSpec(rate_per_sec=1e5, n_requests=100, seed=4),
            ),
        ),
        topology=TopologySpec(n_shards=2, n_replicas=2, n_cores=2),
        policy=policy,
        faults=faults,
        admission=AdmissionSpec(
            enabled=True, gold_depth=64, silver_depth=12, bronze_depth=4
        ),
        fault_horizon_ns=5e7,
        reconfig=reconfig,
    )


def _specs():
    span_ns = 400 / 2e6 * 1e9
    plan = reconfig_plan(_shard_map(4), span_ns, 0.1 * span_ns)
    day = day_spec(2e6, 400, 7, 12_345.5, ADMISSION)
    flash = flash_spec(3e6, 300, 11, 9_876.25, AdmissionSpec())
    return {
        "day": day,
        "day+reconfig": day.with_reconfig(plan),
        "flash": flash,
        "flash+reconfig": flash.with_reconfig(plan),
        "rich": _rich_spec(),
    }


def _reconfigs():
    return {
        "empty": ReconfigSpec(),
        "autoscale": ReconfigSpec(
            autoscale=AutoscaleSpec(interval_ns=2.5e5, up_depth=4)
        ),
        "autoscale+p99": ReconfigSpec(
            autoscale=AutoscaleSpec(
                interval_ns=2.5e5, up_depth=4, up_p99_ns=3.5e4
            )
        ),
        "full": _rich_spec().reconfig,
    }


def _series() -> TimeSeries:
    return TimeSeries(
        window_ns=2500.5,
        n_shards=2,
        windows=(
            WindowStats(
                index=0,
                completed=7,
                failed=1,
                shed=2,
                retries=3,
                hedges=1,
                violations=2,
                max_queue_depth=5,
                p50_ns=812.25,
                p99_ns=2200.125,
                shard_completed=(4, 3),
                shard_failed=(1, 0),
                class_stats=(("bronze", 2, 1, 2, 1), ("gold", 5, 1, 0, 0)),
            ),
            WindowStats(index=1, shard_completed=(0, 0), shard_failed=(0, 0)),
        ),
    )


def _tasks():
    keys = _keys()
    shard_map = _shard_map()
    machine = MachineModel(cores=8, threads=16, ht_gain=0.5)
    telemetry = TelemetryConfig(window_ns=5e4, slo_p99_ns=2e4)
    span_ns = 300 / 1.5e6 * 1e9
    plan = reconfig_plan(shard_map, span_ns, 0.1 * span_ns)
    policy = RouterPolicy(
        hedge_after_ns=span_ns / 40.0,
        max_attempts=3,
        backoff_base_ns=span_ns / 50.0,
        backoff_cap_ns=span_ns / 5.0,
    )
    faults = FaultConfig(
        crash_mttf_ns=span_ns / 2.0, crash_mttr_ns=span_ns / 10.0, seed=5
    )

    def cluster(**kw):
        return cluster_task(
            _per_shard(),
            shard_map,
            request_keys(keys, 300, 3),
            1.5e6,
            300,
            3,
            2,
            2,
            kw.pop("policy", policy),
            kw.pop("faults", faults),
            span_ns * 1.5,
            machine,
            **kw,
        )

    m = _Measurement(300.0, 2.0)
    day = _specs()["day"]
    day_plan = _specs()["day+reconfig"]
    fleet = _per_shard(day.topology.n_shards)
    return {
        "open_loop": open_loop_task(m, 1e6, 200, 1, 2),
        "open_loop+bursty": open_loop_task(
            m, 1e6, 200, 1, 2, machine, True, "bursty"
        ),
        "open_loop+telemetry": open_loop_task(
            m, 1e6, 200, 1, 2, telemetry=telemetry
        ),
        "cluster": cluster(),
        "cluster+nofaults": cluster(policy=RouterPolicy(), faults=None),
        "cluster+telemetry": cluster(telemetry=telemetry),
        "cluster+reconfig": cluster(reconfig=plan),
        "cluster+noop_reconfig": cluster(reconfig=ReconfigSpec()),
        "cluster+telemetry+reconfig": cluster(
            telemetry=telemetry, reconfig=plan
        ),
        "scenario": scenario_task(day, "amzn", N_KEYS, SEED, fleet),
        "scenario+telemetry": scenario_task(
            day, "amzn", N_KEYS, SEED, fleet, telemetry=telemetry
        ),
        "scenario+reconfig": scenario_task(
            day_plan, "amzn", N_KEYS, SEED, fleet, machine, True
        ),
        "scenario+telemetry+reconfig": scenario_task(
            day_plan, "amzn", N_KEYS, SEED, fleet, telemetry=telemetry
        ),
    }


def _cells():
    with open(CELLS_PATH) as f:
        records = json.load(f)
    return [
        MeasureCell(
            dataset=r["dataset"],
            n_keys=r["n_keys"],
            seed=r["seed"],
            key_bits=r["key_bits"],
            index=r["index"],
            config=freeze_config(r["config"]),
            n_lookups=r["n_lookups"],
            warmup=r["warmup"],
            warm=r["warm"],
            search=r["search"],
        )
        for r in records
    ]


def corpus() -> dict:
    """Every pinned entry, name -> string, computed by today's code."""
    out = {}
    for name, spec in _specs().items():
        again = ScenarioSpec.from_json(spec.to_json())
        out[f"spec/{name}/json"] = spec.to_json()
        out[f"spec/{name}/content_key"] = spec.content_key()
        out[f"spec/{name}/scenario_key"] = scenario_key(spec)
        out[f"spec/{name}/roundtrip_json"] = again.to_json()
        out[f"spec/{name}/roundtrip_content_key"] = again.content_key()
        out[f"spec/{name}/roundtrip_scenario_key"] = scenario_key(again)
    for name, rspec in _reconfigs().items():
        again = ReconfigSpec.from_json(rspec.to_json())
        out[f"reconfig/{name}/json"] = rspec.to_json()
        out[f"reconfig/{name}/content_key"] = rspec.content_key()
        out[f"reconfig/{name}/roundtrip_json"] = again.to_json()
        out[f"reconfig/{name}/roundtrip_content_key"] = again.content_key()
    series = _series()
    again = TimeSeries.from_json(series.to_json())
    out["series/json"] = series.to_json()
    out["series/content_key"] = series.content_key()
    out["series/roundtrip_json"] = again.to_json()
    out["series/roundtrip_content_key"] = again.content_key()
    trace = TenantTrace.from_spec(_specs()["day"], _keys())
    again = TenantTrace.from_json(trace.to_json())
    out["trace/json"] = trace.to_json()
    out["trace/content_key"] = trace.content_key()
    out["trace/roundtrip_json"] = again.to_json()
    out["trace/roundtrip_content_key"] = again.content_key()
    for cell in _cells():
        name = (
            f"{cell.index}-{cell.dataset}-{cell.key_bits}bit-"
            f"{_canonical(cell.config_dict())}"
        )
        out[f"cell/{name}/cache_key"] = cache_key(cell)
    tasks = _tasks()
    for name, task in tasks.items():
        out[f"task/{name}/key_fields"] = _canonical(task.key_fields())
        out[f"task/{name}/sim_key"] = sim_key(task)
    clear_sim_results()
    try:
        cluster_rec, tenancy_rec = run_sim_tasks(
            [tasks["cluster+telemetry"], tasks["scenario+reconfig"]]
        )
    finally:
        clear_sim_results()
    out["record/cluster"] = _canonical(cluster_rec)
    out["record/tenancy"] = _canonical(tenancy_rec)
    return out


with open(GOLDEN_PATH) as _f:
    GOLDEN = json.load(_f)


@pytest.fixture(scope="module")
def current():
    return corpus()


def test_corpus_covers_the_golden_file(current):
    assert sorted(current) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_entry_matches_golden(current, name):
    assert current[name] == GOLDEN[name]


def test_round_trips_leave_keys_unchanged():
    """Well-typed specs hash the same before and after a JSON trip."""
    for kind in ("spec", "reconfig"):
        for name in {k.split("/")[1] for k in GOLDEN if k.startswith(kind)}:
            base = f"{kind}/{name}/"
            assert GOLDEN[base + "json"] == GOLDEN[base + "roundtrip_json"]
            assert (
                GOLDEN[base + "content_key"]
                == GOLDEN[base + "roundtrip_content_key"]
            )


if __name__ == "__main__":  # pragma: no cover - inspection aid
    now = corpus()
    for name in sorted(set(now) | set(GOLDEN)):
        if now.get(name) != GOLDEN.get(name):
            print(f"{name}:\n  golden {GOLDEN.get(name)!r}")
            print(f"  now    {now.get(name)!r}")
