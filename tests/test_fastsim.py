"""Property and unit tests for the Lindley kernel fast path.

The kernel's contract is *byte identity*: every result it produces must
equal the event loop's result (``core._open_loop_events``, the loop
with the kernel bypassed) under exact float ``==``, with no tolerance.
The hypothesis suites below throw randomized gap/service configurations
at the kernel (including adversarial equal-time ties, which exercise
the sequential-repair path) and check that :func:`kernel_applies` is
sound (never claims a configuration it cannot reproduce).  A companion
suite pins the vectorized percentile path of :mod:`repro.bench.stats`
to the pure-Python interpolation it replaced.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.stats import TAIL_PERCENTILES, percentile, percentiles
from repro.memsim.counters import PerfCountersF
from repro.serve.arrivals import bursty_arrivals, poisson_arrivals
from repro.serve.core import (
    ServiceModel,
    _open_loop_events,
    simulate_open_loop,
)
from repro.serve.fastsim import (
    _KernelServingResult,
    kernel_applies,
    lindley_open_loop,
    resolve_serve_engine,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

#: Non-negative inter-arrival gaps; zeros create back-to-back arrivals.
gaps = st.lists(
    st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
    min_size=1,
    max_size=200,
)

#: Gaps quantized to multiples of 64 ns: with service times also scaled,
#: arrivals frequently collide exactly with finish times, hammering the
#: tie-break rules (and the kernel's boundary-repair path).
tie_gaps = st.lists(
    st.integers(min_value=0, max_value=8).map(lambda g: 64.0 * g),
    min_size=1,
    max_size=150,
)

#: Counter mixes spanning cheap to memory-bound lookups.
counter_values = st.fixed_dictionaries(
    {
        "instructions": st.floats(min_value=1.0, max_value=5_000.0),
        "llc_misses": st.floats(min_value=0.0, max_value=50.0),
        "l1_hits": st.floats(min_value=0.0, max_value=100.0),
        "branch_misses": st.floats(min_value=0.0, max_value=20.0),
    }
)


def arrivals_from_gaps(gap_list):
    out, t = [], 0.0
    for g in gap_list:
        t += g
        out.append(t)
    return out


def service_from(values) -> ServiceModel:
    return ServiceModel(PerfCountersF(**values))


def assert_results_identical(fast, event):
    __tracebackhide__ = True
    assert fast == event
    assert len(fast.requests) == len(event.requests)
    for a, b in zip(fast.requests, event.requests):
        assert (a.rid, a.arrival_ns, a.start_ns, a.finish_ns, a.core) == (
            b.rid,
            b.arrival_ns,
            b.start_ns,
            b.finish_ns,
            b.core,
        )
    assert fast.latencies_ns == event.latencies_ns
    assert fast.makespan_ns == event.makespan_ns
    assert fast.max_queue_depth == event.max_queue_depth
    assert fast.total_steals == event.total_steals
    assert fast.throughput_per_sec == event.throughput_per_sec


# ---------------------------------------------------------------------------
# the Lindley kernel
# ---------------------------------------------------------------------------


class TestLindleyKernelIdentity:
    @given(gaps=gaps, values=counter_values)
    @settings(max_examples=150, deadline=None)
    def test_random_streams_byte_identical(self, gaps, values):
        arrivals = arrivals_from_gaps(gaps)
        event = _open_loop_events(service_from(values), arrivals, n_cores=1)
        fast = lindley_open_loop(service_from(values), arrivals, n_cores=1)
        assert fast is not None
        assert_results_identical(fast, event)

    @given(gaps=tie_gaps, scale=st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_equal_time_ties_byte_identical(self, gaps, scale):
        """Quantized gaps + quantized service: arrivals land exactly on
        finish times, so the boundary guess is wrong somewhere and the
        sequential repair must reproduce the loop's tie-break."""
        arrivals = arrivals_from_gaps(gaps)
        # instructions=64*scale with no memory traffic gives an integral
        # service time commensurate with the 64 ns gap grid.
        values = {"instructions": 64.0 * scale}
        event = _open_loop_events(service_from(values), arrivals, n_cores=1)
        fast = lindley_open_loop(service_from(values), arrivals, n_cores=1)
        assert fast is not None
        assert_results_identical(fast, event)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rate", [1e5, 2e6, 5e7])
    def test_seeded_arrival_processes(self, seed, rate):
        service = ServiceModel(PerfCountersF(instructions=400, llc_misses=2))
        for arrivals in (
            poisson_arrivals(rate, 600, seed),
            bursty_arrivals(rate, 600, seed),
        ):
            event = _open_loop_events(service, arrivals, n_cores=1)
            fast = simulate_open_loop(service, arrivals, n_cores=1)
            assert isinstance(fast, _KernelServingResult)
            assert_results_identical(fast, event)

    def test_empty_stream(self):
        service = ServiceModel(PerfCountersF(instructions=100))
        result = lindley_open_loop(service, [], n_cores=1)
        assert result is not None
        assert result.requests == []
        assert result.makespan_ns == 0.0

    def test_repair_path_fires_on_drift_rounding(self, monkeypatch):
        """A constructed boundary-guess miss: with s=0.1, eight chained
        additions give 0.7999999999999999 while the guess's ``8*s`` is
        0.8, so an arrival at exactly 0.8 starts a busy period the
        drift guess calls queued -- the sequential repair must run and
        still match the event loop."""
        import repro.serve.fastsim as fastsim

        class FlatService:
            def service_ns(self, k):
                return 0.1

        calls = []
        real_repair = fastsim._sequential_repair

        def spy(*args, **kwargs):
            calls.append(args)
            return real_repair(*args, **kwargs)

        monkeypatch.setattr(fastsim, "_sequential_repair", spy)
        arrivals = [0.0] * 8 + [8 * 0.1]
        assert sum([0.1] * 8) < 8 * 0.1  # the rounding gap under test
        fast = lindley_open_loop(FlatService(), arrivals, n_cores=1)
        event = _open_loop_events(FlatService(), arrivals, n_cores=1)
        assert calls, "the guess should have been wrong somewhere"
        assert_results_identical(fast, event)

    def test_kernel_result_eq_foreign_type(self):
        service = ServiceModel(PerfCountersF(instructions=100))
        result = lindley_open_loop(service, [1.0, 2.0], n_cores=1)
        assert result != object()
        assert not (result == object())


class TestKernelAppliesSoundness:
    """The fallback predicate may be conservative but never wrong: if it
    accepts a configuration, the kernel must reproduce the event loop."""

    def test_rejects_multi_core(self):
        service = ServiceModel(PerfCountersF(instructions=100))
        assert not kernel_applies(service, [1.0, 2.0], n_cores=2)
        assert lindley_open_loop(service, [1.0, 2.0], n_cores=2) is None

    def test_rejects_unsorted_arrivals(self):
        service = ServiceModel(PerfCountersF(instructions=100))
        assert not kernel_applies(service, [5.0, 1.0], n_cores=1)

    def test_rejects_non_finite_arrivals(self):
        service = ServiceModel(PerfCountersF(instructions=100))
        assert not kernel_applies(service, [1.0, float("inf")], n_cores=1)
        assert not kernel_applies(service, [float("nan")], n_cores=1)

    @given(gaps=gaps, values=counter_values)
    @settings(max_examples=60, deadline=None)
    def test_accepted_implies_identical(self, gaps, values):
        arrivals = arrivals_from_gaps(gaps)
        if not kernel_applies(service_from(values), arrivals, n_cores=1):
            return
        fast = lindley_open_loop(service_from(values), arrivals, n_cores=1)
        event = _open_loop_events(service_from(values), arrivals, n_cores=1)
        assert_results_identical(fast, event)

    def test_fast_engine_falls_back_when_kernel_refuses(self):
        """A multi-core open loop must transparently take the event loop
        and still be byte-identical."""
        service = ServiceModel(PerfCountersF(instructions=200, llc_misses=1))
        arrivals = poisson_arrivals(5e6, 500, seed=7)
        for n_cores in (2, 4):
            event = _open_loop_events(service, arrivals, n_cores=n_cores)
            fast = simulate_open_loop(service, arrivals, n_cores=n_cores)
            assert not isinstance(fast, _KernelServingResult)
            assert_results_identical(fast, event)


# ---------------------------------------------------------------------------
# engine name
# ---------------------------------------------------------------------------


class TestEngineSelection:
    def test_default_is_event(self):
        assert resolve_serve_engine() == "event"


# ---------------------------------------------------------------------------
# vectorized percentiles (repro.bench.stats)
# ---------------------------------------------------------------------------


def _percentile_reference(values, q):
    """The pure-Python sorted-list interpolation the numpy path replaced."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 1:
        return xs[0]
    rank = (q / 100.0) * (n - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return xs[lo] + (xs[hi] - xs[lo]) * frac


latency_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=400,
)


class TestPercentileParity:
    @given(values=latency_lists, q=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_pure_python(self, values, q):
        assert percentile(values, q) == _percentile_reference(values, q)

    @given(values=latency_lists)
    @settings(max_examples=100, deadline=None)
    def test_tail_percentiles_share_one_sort(self, values):
        got = percentiles(values, TAIL_PERCENTILES)
        assert got == {
            q: _percentile_reference(values, q) for q in TAIL_PERCENTILES
        }

    def test_single_element(self):
        assert percentile([42.0], 99.9) == 42.0
