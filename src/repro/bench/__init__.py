"""Benchmark harness: traced measurement, machine models, experiment drivers."""

from repro.bench.cache import MeasurementCache
from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.harness import (
    BuiltIndex,
    Measurement,
    build_index,
    measure,
    measure_index,
)
from repro.bench.parallel import RunnerStats, run_cells
from repro.bench.stats import RegressionResult, ols
from repro.serve.contention import MachineModel, ThroughputPoint, throughput

__all__ = [
    "BenchSettings",
    "BuiltIndex",
    "MeasureCell",
    "Measurement",
    "MeasurementCache",
    "RunnerStats",
    "build_index",
    "measure",
    "measure_index",
    "run_cells",
    "MachineModel",
    "ThroughputPoint",
    "throughput",
    "RegressionResult",
    "ols",
]
