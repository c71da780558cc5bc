"""Figure 16 companion: throughput-model evaluation speed and shape."""

from repro.bench.harness import measure_index
from repro.serve.contention import thread_sweep, throughput


def test_thread_sweep(benchmark, amzn, workload):
    m = measure_index(amzn, workload, "RMI", {"branching": 512}, n_lookups=150)
    threads = list(range(1, 41))
    points = benchmark(thread_sweep, m, threads)
    rates = [p.lookups_per_sec for p in points]
    assert rates == sorted(rates)


def test_fig16_shape_robinhash_throttled(amzn, workload):
    """Non-benchmark check: RobinHash's 40-thread speedup trails a
    low-miss structure's (the paper's Figure 16 headline)."""
    robin = measure_index(amzn, workload, "RobinHash", {}, n_lookups=150)
    fast = measure_index(amzn, workload, "FAST", {"gap": 2}, n_lookups=150)
    assert throughput(fast, 40).speedup >= throughput(robin, 40).speedup
