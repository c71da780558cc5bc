"""The ``serve-mix`` workload: a seeded list of serving simulation tasks.

Three kinds of task, in fixed proportions so that every seed does the
same amount of work (the seed picks arrival, key and fault seeds and the
order, never the mix).  The task counts weight each kind by its share of
the serving time in a traced ``quick-cold`` run, so a regression in one
serving path moves this workload about as much as it moves the serving
part of regenerating the paper (README.md, "serve-mix"):

* open-loop Poisson and bursty load points on one node (the path the
  Lindley kernel serves when the fast serving engine is on);
* 4-shard x 2-replica clusters with crash and slow faults, retries and
  hedging;
* tenant days (diurnal and flash-crowd) with admission shedding plus a
  shard split, a rebuild-and-swap and autoscaling.

Service models come from a few ``measure_index`` calls.
"""

from __future__ import annotations

import random
from dataclasses import replace

N_KEYS = 20_000
N_LOOKUPS = 250
WARMUP = 120
DATASETS = ("amzn", "osm")
INDEXES = ("RMI", "PGM", "BTree")
#: Open loop: offered load as a fraction of one node's capacity.
OPEN_LOADS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95)
OPEN_REQUESTS = 1000
OPEN_CORES = 4
#: Clusters: offered load as a fraction of the weakest shard's capacity.
CLUSTER_LOADS = (0.4, 0.7)
CLUSTER_REQUESTS = 800
SCENARIO_LOADS = (0.4, 0.5, 0.6, 0.7)
SCENARIO_REQUESTS = 800
N_SHARDS = 4
N_REPLICAS = 2
SIM_CORES = 2


def measurements(seed: int) -> dict:
    """``{(dataset, index): Measurement}``: the service models."""
    from repro.bench.harness import measure_index
    from repro.datasets.loader import make_dataset
    from repro.datasets.workload import make_workload

    out = {}
    for ds_name in DATASETS:
        ds = make_dataset(ds_name, N_KEYS, seed=seed)
        wl = make_workload(ds, N_LOOKUPS + WARMUP, seed=seed + 1)
        for index in INDEXES:
            out[ds_name, index] = measure_index(
                ds, wl, index, None, n_lookups=N_LOOKUPS, warmup=WARMUP
            )
    return out


def tasks(seed: int, models: dict) -> list:
    """The task list for ``seed``, in a seeded order."""
    from repro.bench.experiments.ext_cluster import (
        scenario_faults,
        scenario_policy,
    )
    from repro.bench.experiments.ext_reconfig import reconfig_plan
    from repro.bench.experiments.ext_tenants import (
        ADMISSION,
        day_spec,
        flash_spec,
    )
    from repro.datasets.loader import make_dataset
    from repro.serve.contention import MachineModel, throughput
    from repro.serve.core import ServiceModel
    from repro.serve.router import ShardMap, request_keys
    from repro.serve.sweep import cluster_task, open_loop_task, scenario_task

    rng = random.Random(seed)
    machine = MachineModel()
    out = []

    for (ds_name, index), m in sorted(models.items()):
        capacity = throughput(m, OPEN_CORES, machine=machine).lookups_per_sec
        for shape in ("poisson", "bursty"):
            for load in OPEN_LOADS:
                out.append(
                    open_loop_task(
                        m, load * capacity, OPEN_REQUESTS,
                        rng.randrange(1 << 30), OPEN_CORES, machine,
                        shape=shape,
                    )
                )

    for ds_name in DATASETS:
        keys = make_dataset(ds_name, N_KEYS, seed=seed).keys
        shard_map = ShardMap.from_keys(keys, N_SHARDS)
        for rot in range(len(INDEXES)):
            per_shard = [
                models[ds_name, INDEXES[(rot + s) % len(INDEXES)]]
                for s in range(N_SHARDS)
            ]
            weakest = min(
                throughput(m, SIM_CORES, machine=machine).lookups_per_sec
                for m in per_shard
            )
            full = weakest * N_SHARDS * N_REPLICAS
            for load in CLUSTER_LOADS:
                rate = load * full
                span_ns = CLUSTER_REQUESTS / rate * 1e9
                for faults in ("crash", "crash+slow"):
                    for hedge in (False, True):
                        policy = replace(
                            scenario_policy(span_ns),
                            max_attempts=3,
                            hedge_after_ns=span_ns / 40.0 if hedge else None,
                        )
                        req_seed = rng.randrange(1 << 30)
                        out.append(
                            cluster_task(
                                per_shard, shard_map,
                                request_keys(keys, CLUSTER_REQUESTS, req_seed),
                                rate, CLUSTER_REQUESTS, req_seed,
                                N_REPLICAS, SIM_CORES, policy,
                                scenario_faults(
                                    faults, span_ns, rng.randrange(1 << 30)
                                ),
                                span_ns * 1.5, machine,
                            )
                        )
            services = [
                ServiceModel.from_measurement(m, machine=machine)
                for m in per_shard
            ]
            slo_ns = 8.0 * max(s.service_ns(SIM_CORES) for s in services)
            for load in SCENARIO_LOADS:
                offered = load * full
                span_ns = SCENARIO_REQUESTS / offered * 1e9
                plan = reconfig_plan(shard_map, span_ns, 0.1 * span_ns)
                for make in (day_spec, flash_spec):
                    spec = make(
                        offered, SCENARIO_REQUESTS, rng.randrange(1 << 30),
                        slo_ns, ADMISSION,
                    ).with_reconfig(plan)
                    out.append(
                        scenario_task(
                            spec, ds_name, N_KEYS, seed, per_shard, machine
                        )
                    )

    rng.shuffle(out)
    return out


def requests(task) -> int:
    """Simulated requests in one task."""
    import json

    if type(task).__name__ == "ScenarioTask":
        spec = json.loads(task.spec_json)
        return sum(t["arrivals"]["n_requests"] for t in spec["tenants"])
    return task.n_requests
