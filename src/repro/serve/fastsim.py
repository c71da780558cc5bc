"""Exact vectorized Lindley kernel for the single-queue open loop.

The discrete-event loop in :mod:`repro.serve.core` is the semantic
reference, but it pays per-event Python prices: two heap operations and
a handful of closures per request.  :func:`lindley_open_loop` is a numpy
Lindley-recursion kernel for the single-queue, no-steal open-loop path,
and :func:`~repro.serve.core.simulate_open_loop` takes it automatically
whenever :func:`kernel_applies` holds.  It is held to the event loop's
bar: **byte-identical results** -- every float in the
:class:`~repro.serve.core.ServingResult` equals the event loop's output
exactly, so no cache key needs to know which path produced a record.

With one core the busy-core count is always 1, so the contention model
collapses to one constant service time ``s`` and the waiting-time
recursion ``start_i = max(arrival_i, finish_{i-1})`` is exact.  Finish
times are chained additions of ``s`` inside each busy period, reproduced
bit-for-bit with ``np.cumsum`` (``add.accumulate`` is sequential, so it
performs the *same* float additions as the loop).  Busy-period
boundaries are *guessed* with a vectorized running max, then
*validated* exactly against the recursion; any mismatch falls back to a
sequential sweep from the first divergent index -- the kernel never
approximates.  Configurations the kernel cannot reproduce exactly
(``n_cores > 1``, where work stealing and the busy-count coupling of
``service_time_ns`` make state order-dependent, or unsorted/non-finite
arrivals) are refused per-config (:func:`kernel_applies`) and run on the
event loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.serve import telemetry as tel_mod
from repro.serve.core import Request, ServiceModel, ServingResult
from repro.serve.telemetry import TelemetryConfig, TimeSeries

def resolve_serve_engine() -> str:
    """Name of the serving simulator's one engine: the discrete-event
    loop (with this module's kernel as its exact single-queue fast
    path)."""
    return "event"


class _KernelServingResult(ServingResult):
    """Kernel output with lazily materialized :class:`Request` objects.

    The Lindley kernel produces arrival/start/finish arrays; building
    20k dataclass instances out of them would dominate its runtime, and
    most consumers (``summarize_result``, the selector sweeps) only read
    ``latencies_ns``.  So the arrays are kept and ``requests`` is a
    property that materializes the exact event-loop objects on first
    access.  Every observable value -- fields, latencies
    (``finish - arrival`` is the same IEEE subtraction either way),
    equality against a plain :class:`ServingResult` -- is byte-identical.
    """

    def __init__(
        self,
        arrivals: np.ndarray,
        start: np.ndarray,
        finish: np.ndarray,
        max_queue_depth: int,
    ):
        # Deliberately skips the dataclass __init__: ``requests`` is a
        # class-level property here and must not be assigned.
        self._arrivals = arrivals
        self._start = start
        self._finish = finish
        self._requests: Optional[List[Request]] = None
        self.n_cores = 1
        self.makespan_ns = float(finish[-1])
        self.total_steals = 0
        self.max_queue_depth = max_queue_depth
        self.telemetry: Optional[TimeSeries] = None
        self.traces: Optional[tuple] = None

    @property
    def requests(self) -> List[Request]:
        if self._requests is None:
            a_list = self._arrivals.tolist()
            st_list = self._start.tolist()
            f_list = self._finish.tolist()
            self._requests = [
                Request(rid, a, 0, st, f, 0)
                for rid, (a, st, f) in enumerate(
                    zip(a_list, st_list, f_list)
                )
            ]
        return self._requests

    @property
    def latencies_ns(self) -> List[float]:
        return (self._finish - self._arrivals).tolist()

    @property
    def throughput_per_sec(self) -> float:
        if self.makespan_ns <= 0.0:
            return 0.0
        return self._arrivals.shape[0] / (self.makespan_ns * 1e-9)

    def _field_tuple(self):
        return (
            self.requests,
            self.n_cores,
            self.makespan_ns,
            self.total_steals,
            self.max_queue_depth,
            self.telemetry,
            self.traces,
        )

    def __eq__(self, other):
        if isinstance(other, ServingResult):
            return self._field_tuple() == (
                other.requests,
                other.n_cores,
                other.makespan_ns,
                other.total_steals,
                other.max_queue_depth,
                other.telemetry,
                other.traces,
            )
        return NotImplemented


def kernel_applies(
    service: ServiceModel, arrivals_ns: Sequence[float], n_cores: int
) -> bool:
    """True iff :func:`lindley_open_loop` reproduces the event loop
    exactly for this configuration.

    The predicate is conservative by construction: with several cores,
    work stealing and the busy-count argument of
    :meth:`~repro.serve.core.ServiceModel.service_ns` make service times
    depend on interleaving order, which no closed-form recursion can
    reproduce -- so anything but a single-core, sorted, finite arrival
    stream with a positive service time is refused and handled by the
    event loop instead.
    """
    if n_cores != 1:
        return False
    a = np.asarray(arrivals_ns, dtype=np.float64)
    if a.size and (not np.all(np.isfinite(a)) or np.any(a[1:] < a[:-1])):
        return False
    s = service.service_ns(1)
    return bool(np.isfinite(s)) and s > 0.0


def lindley_open_loop(
    service: ServiceModel,
    arrivals_ns: Sequence[float],
    n_cores: int,
    telemetry: Optional[TelemetryConfig] = None,
) -> Optional[ServingResult]:
    """Vectorized single-queue open loop; ``None`` when it doesn't apply.

    Byte-identical to the event loop on every configuration it accepts (pinned by the hypothesis suite in
    ``tests/test_fastsim.py``), telemetry included: the kernel has no
    per-event code, so :func:`repro.serve.telemetry.open_loop_series`
    recomputes the collector's windowed aggregates from the arrays with
    the same binning arithmetic and percentile code.
    """
    if not kernel_applies(service, arrivals_ns, n_cores):
        return None
    n = len(arrivals_ns)
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return ServingResult(
            requests=[],
            n_cores=n_cores,
            makespan_ns=0.0,
            total_steals=0,
            max_queue_depth=0,
            telemetry=(
                tel_mod.open_loop_series(telemetry, empty, empty, empty, empty)
                if telemetry is not None
                else None
            ),
            traces=() if telemetry is not None and telemetry.traces else None,
        )
    arr = np.asarray(arrivals_ns, dtype=np.float64)
    s = service.service_ns(1)
    finish, starts = _exact_finish_times(arr, s)
    # start_i = max(A_i, F_{i-1}) without arithmetic: a busy-period
    # start begins service at its arrival, everything else at the
    # previous finish (equal-time ties dispatch the arrival first and
    # start it at now == F_{i-1} == A_i, which np.where matches).
    prev_finish = np.empty(n, dtype=np.float64)
    prev_finish[0] = 0.0
    prev_finish[1:] = finish[:-1]
    start = np.where(starts, arr, prev_finish)
    # Queue depth at request i's dispatch instant: everything not yet
    # finished, where a finish at exactly A_i still counts (the arrival
    # pops first).  finish is strictly increasing (s > 0), so the count
    # of earlier finishes is a searchsorted.
    depth = np.arange(1, n + 1) - np.searchsorted(finish, arr, side="left")
    result = _KernelServingResult(
        arrivals=arr,
        start=start,
        finish=finish,
        max_queue_depth=int(depth.max()),
    )
    if telemetry is not None:
        result.telemetry = tel_mod.open_loop_series(
            telemetry, arr, start, finish, depth
        )
        if telemetry.traces:
            result.traces = tel_mod.open_loop_traces(arr, start, finish)
    return result


def _exact_finish_times(
    arr: np.ndarray, s: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Finish times + busy-period-start mask, bit-identical to the loop.

    Boundaries are guessed with the float running max of
    ``A_i - i*s`` (cheap, but its rounding can differ from the loop's
    chained additions near exact ties), then validated against the
    recursion ``starts_i == (A_i > F_{i-1})`` using the *exact* finish
    times implied by the guess.  Consistency proves correctness by
    induction; the first inconsistent index falls back to a sequential
    sweep, so the result is always exact, never approximated.
    """
    n = arr.shape[0]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    if n > 1:
        drift = arr - np.arange(n, dtype=np.float64) * s
        running = np.maximum.accumulate(drift)
        starts[1:] = drift[1:] > running[:-1]
    finish = _finish_from_starts(arr, s, starts)
    if n > 1:
        expected = arr[1:] > finish[:-1]
        mismatch = np.flatnonzero(expected != starts[1:])
        if mismatch.size:
            _sequential_repair(arr, s, starts, finish, int(mismatch[0]) + 1)
    return finish, starts


def _finish_from_starts(
    arr: np.ndarray, s: float, starts: np.ndarray
) -> np.ndarray:
    """Chained-addition finish times for a given busy-period partition.

    Within a period of length L starting at j the loop computes
    ``A_j + s``, then L-1 further ``+ s`` additions.  ``np.cumsum``
    (``add.accumulate``) applies the same additions sequentially, so
    grouping all periods of equal length into one 2-D cumsum reproduces
    every float bit-for-bit while staying vectorized.
    """
    n = arr.shape[0]
    starts_idx = np.flatnonzero(starts)
    lengths = np.diff(np.append(starts_idx, n))
    finish = np.empty(n, dtype=np.float64)
    singles = starts_idx[lengths == 1]
    if singles.size:
        finish[singles] = arr[singles] + s
    for length in np.unique(lengths[lengths >= 2]):
        length = int(length)
        heads = starts_idx[lengths == length]
        steps = np.full((heads.shape[0], length), s, dtype=np.float64)
        steps[:, 0] = arr[heads] + s
        finish[heads[:, None] + np.arange(length)] = np.cumsum(steps, axis=1)
    return finish


def _sequential_repair(
    arr: np.ndarray,
    s: float,
    starts: np.ndarray,
    finish: np.ndarray,
    first_bad: int,
) -> None:
    """Exact scalar recursion from the first index the guess got wrong.

    Everything before ``first_bad`` is already exact (validation walks
    from the front), so resume the event loop's own arithmetic there.
    """
    f_prev = float(finish[first_bad - 1])
    a_list = arr.tolist()
    for i in range(first_bad, len(a_list)):
        a = a_list[i]
        if a > f_prev:
            starts[i] = True
            f_prev = a + s
        else:
            starts[i] = False
            f_prev = f_prev + s
        finish[i] = f_prev
