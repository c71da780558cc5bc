"""Differential tests: reconfiguration's no-op is *exactly* nothing.

A cluster or scenario run with ``ReconfigSpec()`` (no triggers)
attached is byte-identical to the same run with no spec at all -- every
per-request float, on sharded, faulted and multi-tenant topologies, and
whether the scenario fans out serially or on a 2-process pool.
Attaching the zero spec must not even construct a runtime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memsim.counters import PerfCountersF
from repro.serve.arrivals import poisson_arrivals
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.core import ServiceModel
from repro.serve.faults import FaultConfig
from repro.serve.reconfig import ReconfigSpec
from repro.serve.router import RouterPolicy, ShardMap, request_keys
from repro.serve.scenario import TopologySpec, single_tenant_spec
from repro.serve.sweep import run_sim_tasks, scenario_task
from repro.serve.telemetry import TelemetryConfig
from repro.serve.tenancy import simulate_scenario

RATE = 3e5
N_REQ = 400
SPAN_NS = N_REQ / RATE * 1e9


def counters(instructions=500):
    return PerfCountersF(
        instructions=instructions,
        branch_misses=5.0,
        llc_misses=30.0,
        l1_hits=40.0,
    )


class FakeMeasurement:
    """Duck-typed stand-in for repro.bench.harness.Measurement."""

    def __init__(self):
        self.index = "X"
        self.config = {}
        self.size_bytes = 1 << 20
        self.counters = counters()


@pytest.fixture(scope="module")
def keys():
    raw = np.random.default_rng(0).integers(
        0, 2**40, size=6000, dtype=np.uint64
    )
    return np.unique(raw)


def cluster_run(keys, reconfig, faults=None, seed=5):
    shard_map = ShardMap.from_keys(keys, 3)
    cluster = Cluster(
        shard_map=shard_map,
        services=[ServiceModel(counters()) for _ in range(3)],
        n_replicas=2,
        n_cores=2,
        policy=RouterPolicy(),
        faults=faults,
        reconfig=reconfig,
    )
    return simulate_cluster(
        cluster,
        poisson_arrivals(RATE, N_REQ, seed),
        request_keys(keys, N_REQ, seed),
        fault_horizon_ns=SPAN_NS if faults is not None else None,
        telemetry=TelemetryConfig(window_ns=SPAN_NS / 8),
    )


def record_tuple(r):
    return (
        r.rid,
        r.key,
        r.shard,
        r.arrival_ns,
        r.attempts,
        r.retries,
        r.hedged,
        r.completed,
        r.failed,
        r.start_ns,
        r.finish_ns,
        r.replica,
        r.core,
    )


def assert_records_identical(a_records, b_records):
    assert len(a_records) == len(b_records)
    for a, b in zip(a_records, b_records):
        assert record_tuple(a) == record_tuple(b)


class TestNoOpSpecIsByteIdentical:
    """``ReconfigSpec()`` attached == no spec at all, exactly."""

    def test_sharded_cluster(self, keys):
        base = cluster_run(keys, reconfig=None)
        noop = cluster_run(keys, reconfig=ReconfigSpec())
        assert_records_identical(noop.records, base.records)
        assert noop.makespan_ns == base.makespan_ns
        assert noop.telemetry.to_dict() == base.telemetry.to_dict()
        # The zero spec never constructs reconfig state.
        assert noop.epochs is None and base.epochs is None
        assert noop.epoch_count == 1 and noop.final_shards == 3

    def test_faulted_cluster(self, keys):
        faults = FaultConfig(
            crash_mttf_ns=SPAN_NS / 3,
            crash_mttr_ns=SPAN_NS / 6,
            slow_mttf_ns=SPAN_NS / 2,
            slow_mttr_ns=SPAN_NS / 5,
            seed=9,
        )
        base = cluster_run(keys, reconfig=None, faults=faults)
        noop = cluster_run(keys, reconfig=ReconfigSpec(), faults=faults)
        assert_records_identical(noop.records, base.records)
        assert noop.telemetry.to_dict() == base.telemetry.to_dict()

    def test_tenant_scenario(self, keys):
        spec = single_tenant_spec(
            RATE,
            N_REQ,
            seed=4,
            topology=TopologySpec(n_shards=3, n_replicas=2, n_cores=2),
        )
        services = [ServiceModel(counters()) for _ in range(3)]
        base = simulate_scenario(spec, services, keys)
        noop = simulate_scenario(
            spec.with_reconfig(ReconfigSpec()),
            [ServiceModel(counters()) for _ in range(3)],
            keys,
        )
        assert_records_identical(noop.cluster.records, base.cluster.records)
        for a, b in zip(noop.tenants, base.tenants):
            assert (a.requests, a.completed, a.failed, a.shed) == (
                b.requests,
                b.completed,
                b.failed,
                b.shed,
            )
            assert a.latencies_ns == b.latencies_ns

    def test_serial_vs_jobs(self):
        """The no-op identity holds through the task fan-out layer."""
        spec = single_tenant_spec(
            RATE,
            N_REQ,
            seed=4,
            topology=TopologySpec(n_shards=2, n_replicas=2, n_cores=2),
        )
        tasks = [
            scenario_task(
                s, "amzn", 2000, 0, [FakeMeasurement(), FakeMeasurement()]
            )
            for s in (spec, spec.with_reconfig(ReconfigSpec()))
        ]
        serial = run_sim_tasks(tasks, jobs=1)
        pooled = run_sim_tasks(tasks, jobs=2)
        assert serial[0] == serial[1]  # no-op spec == no spec
        assert serial == pooled  # pool == serial, byte for byte
