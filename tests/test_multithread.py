"""Multithreaded throughput model."""

import pytest

from repro.bench.harness import Measurement
from repro.serve.contention import MachineModel, thread_sweep, throughput
from repro.memsim.counters import PerfCountersF


def fake_measurement(instructions=50, llc_misses=3.0, branch_misses=1.0):
    c = PerfCountersF(
        instructions=instructions,
        branch_misses=branch_misses,
        llc_misses=llc_misses,
        l1_hits=4.0,
    )
    from repro.memsim.costmodel import XEON_GOLD_6230

    return Measurement(
        index="X",
        dataset="amzn",
        config={},
        n_keys=1000,
        size_bytes=1 << 20,
        build_seconds=0.0,
        counters=c,
        latency_ns=XEON_GOLD_6230.latency_ns(c),
        fence_latency_ns=XEON_GOLD_6230.latency_ns(c, fence=True),
        avg_log2_bound=5.0,
        n_lookups=100,
    )


class TestMachineModel:
    def test_linear_up_to_cores(self):
        m = MachineModel(cores=20)
        assert m.effective_parallelism(10) == 10
        assert m.effective_parallelism(20) == 20

    def test_hyperthreads_partial(self):
        m = MachineModel(cores=20, threads=40, ht_gain=0.6)
        assert m.effective_parallelism(40) == pytest.approx(32.0)

    def test_capped_at_thread_count(self):
        m = MachineModel(cores=20, threads=40)
        assert m.effective_parallelism(80) == m.effective_parallelism(40)


class TestThroughput:
    def test_monotone_in_threads(self):
        m = fake_measurement()
        points = thread_sweep(m, [1, 2, 4, 8, 16, 32, 40])
        rates = [p.lookups_per_sec for p in points]
        assert rates == sorted(rates)

    def test_single_thread_close_to_inverse_latency(self):
        m = fake_measurement()
        p = throughput(m, 1)
        expected = 1e9 / m.latency_ns
        assert p.lookups_per_sec == pytest.approx(expected, rel=0.1)

    def test_fence_lowers_throughput(self):
        m = fake_measurement()
        assert (
            throughput(m, 40, fence=True).lookups_per_sec
            < throughput(m, 40, fence=False).lookups_per_sec
        )

    def test_high_miss_rate_throttles_scaling(self):
        """The paper's RobinHash observation: many misses -> poor speedup."""
        lean = fake_measurement(llc_misses=0.5)
        heavy = fake_measurement(llc_misses=8.0)
        assert throughput(lean, 40).speedup > throughput(heavy, 40).speedup

    def test_speedup_bounded_by_effective_parallelism(self):
        m = fake_measurement()
        p = throughput(m, 40)
        assert p.speedup <= MachineModel().effective_parallelism(40) + 1e-6

    def test_cache_misses_per_sec(self):
        m = fake_measurement(llc_misses=2.0)
        p = throughput(m, 8)
        assert p.cache_misses_per_sec == pytest.approx(
            p.lookups_per_sec * 2.0
        )

    def test_zero_misses_no_bandwidth_term(self):
        m = fake_measurement(llc_misses=0.0)
        p = throughput(m, 20)
        assert p.speedup == pytest.approx(20.0, rel=1e-6)
