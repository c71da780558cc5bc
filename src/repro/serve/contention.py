"""Memory-contention model shared by Figure 16 and the serving simulator.

This is the Figure 16 machine model, shared with the serving
simulator: cores scale linearly, hyperthreads
contribute a fraction each, and concurrent lookups contend for DRAM
bandwidth.  Each lookup moves ``llc_misses`` cache lines through memory;
under load the effective memory latency inflates linearly with consumed
bandwidth, giving the self-consistent throughput equation
``thr = eff(T) / (lat + m^2 * D * line / BW * thr)`` -- a quadratic with
one positive root.  High-miss structures (RobinHash) self-throttle,
low-miss ones (FAST, PGM) scale nearly linearly.

Two views of the same quadratic:

* :func:`throughput` -- the closed-loop steady state at ``T`` saturated
  threads (Figure 16's axis: lookups/second).
* :func:`service_time_ns` -- the per-request view the discrete-event
  simulator needs: the expected service time of one lookup while ``k``
  cores are busy.  Substituting ``thr = k / s`` into the throughput
  equation yields ``s^2 - lat*s - b*k = 0``, so at full occupancy the
  simulator's service times reproduce Figure 16's steady state exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.memsim.cache import LINE_SIZE
from repro.memsim.costmodel import XEON_GOLD_6230, CostModel


@dataclass(frozen=True)
class MachineModel:
    """Core/memory parameters of the modelled machine."""

    cores: int = 20
    threads: int = 40
    ht_gain: float = 0.6
    dram_bandwidth_bytes: float = 8.0e10  # ~80 GB/s, 6-channel DDR4-2933

    def effective_parallelism(self, n_threads: int) -> float:
        if n_threads <= self.cores:
            return float(n_threads)
        extra = min(n_threads, self.threads) - self.cores
        return self.cores + extra * self.ht_gain


@dataclass
class ThroughputPoint:
    index: str
    threads: int
    fence: bool
    lookups_per_sec: float
    cache_misses_per_sec: float
    speedup: float


def bandwidth_coefficient(
    counters,
    machine: MachineModel = MachineModel(),
    cost_model: CostModel = XEON_GOLD_6230,
) -> float:
    """The quadratic's ``b`` term (seconds^2): per-lookup bandwidth drag.

    ``b * thr`` is the extra seconds each lookup spends waiting for DRAM
    when the machine sustains ``thr`` lookups/second.
    """
    m = max(counters.llc_misses, 0.0)
    return (m * m) * (cost_model.dram_ns * 1e-9) * LINE_SIZE / (
        machine.dram_bandwidth_bytes
    )


def throughput(
    measurement,
    n_threads: int,
    fence: bool = False,
    machine: MachineModel = MachineModel(),
    cost_model: CostModel = XEON_GOLD_6230,
) -> ThroughputPoint:
    """Modelled lookups/second at ``n_threads`` concurrent threads."""
    c = measurement.counters
    lat_s = cost_model.latency_ns(c, fence=fence) * 1e-9
    eff = machine.effective_parallelism(n_threads)
    m = max(c.llc_misses, 0.0)
    # Quadratic: b*thr^2 + lat*thr - eff = 0.
    b = bandwidth_coefficient(c, machine, cost_model)
    if b <= 0.0:
        thr = eff / lat_s
    else:
        thr = (-lat_s + math.sqrt(lat_s * lat_s + 4.0 * b * eff)) / (2.0 * b)
    single = 1.0 / lat_s
    return ThroughputPoint(
        index=measurement.index,
        threads=n_threads,
        fence=fence,
        lookups_per_sec=thr,
        cache_misses_per_sec=thr * m,
        speedup=thr / single,
    )


def thread_sweep(
    measurement,
    thread_counts: Sequence[int],
    fence: bool = False,
    machine: MachineModel = MachineModel(),
    cost_model: CostModel = XEON_GOLD_6230,
) -> List[ThroughputPoint]:
    return [
        throughput(measurement, t, fence, machine, cost_model)
        for t in thread_counts
    ]


def service_time_ns(
    counters,
    busy_cores: int,
    fence: bool = False,
    machine: MachineModel = MachineModel(),
    cost_model: CostModel = XEON_GOLD_6230,
) -> float:
    """Contention-inflated service time of one lookup, in nanoseconds.

    ``busy_cores`` counts the cores concurrently executing lookups
    (including the one being served).  Solving ``s^2 - lat*s - b*k = 0``
    for its positive root gives the per-request service time whose
    steady state matches :func:`throughput` at ``k`` saturated cores.
    """
    if busy_cores < 1:
        raise ValueError(f"busy_cores must be >= 1, got {busy_cores}")
    lat_s = cost_model.latency_ns(counters, fence=fence) * 1e-9
    b = bandwidth_coefficient(counters, machine, cost_model)
    if b <= 0.0:
        return lat_s * 1e9
    s = (lat_s + math.sqrt(lat_s * lat_s + 4.0 * b * busy_cores)) / 2.0
    return s * 1e9


def saturation_throughput(
    measurement,
    machine: MachineModel = MachineModel(),
    fence: bool = False,
    cost_model: CostModel = XEON_GOLD_6230,
) -> float:
    """Lookups/second with every physical core saturated (no HT)."""
    return throughput(
        measurement, machine.cores, fence=fence, machine=machine,
        cost_model=cost_model,
    ).lookups_per_sec
