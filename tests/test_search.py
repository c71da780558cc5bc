"""Last-mile search functions."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import SearchBound
from repro.memsim import AddressSpace, NullTracer, PerfTracer, TracedArray
from repro.search.last_mile import (
    SEARCH_FUNCTIONS,
    binary_search,
    interpolation_search,
    linear_search,
)


def traced(keys):
    space = AddressSpace()
    return TracedArray.allocate(space, np.asarray(keys, dtype=np.uint64))


@pytest.mark.parametrize("search", sorted(SEARCH_FUNCTIONS))
class TestAllSearches:
    def test_matches_bisect_full_bound(self, search):
        keys = [2, 5, 5 + 6, 30, 31, 100, 1000]
        data = traced(keys)
        fn = SEARCH_FUNCTIONS[search]
        bound = SearchBound(0, len(keys) + 1)
        for probe in [0, 2, 3, 11, 30, 999, 1000, 1001]:
            assert fn(data, probe, bound) == bisect.bisect_left(keys, probe)

    def test_respects_restricted_bound(self, search):
        keys = list(range(0, 1000, 10))
        data = traced(keys)
        fn = SEARCH_FUNCTIONS[search]
        truth = bisect.bisect_left(keys, 501)
        assert fn(data, 501, SearchBound(truth - 3, truth + 4)) == truth

    def test_empty_bound(self, search):
        data = traced([1, 2, 3])
        fn = SEARCH_FUNCTIONS[search]
        assert fn(data, 2, SearchBound(1, 1)) == 1

    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200, unique=True),
        st.integers(0, 2**64 - 1),
        st.integers(0, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_bisect(self, search, keys, probe, slack):
        keys.sort()
        data = traced(keys)
        truth = bisect.bisect_left(keys, probe)
        bound = SearchBound(
            max(0, truth - slack), min(truth + slack + 1, len(keys) + 1)
        )
        assert SEARCH_FUNCTIONS[search](data, probe, bound) == truth


class TestCostProfiles:
    def test_binary_logarithmic_reads(self):
        keys = list(range(1_024))
        data = traced(keys)
        t = PerfTracer()
        binary_search(data, 513, SearchBound(0, 1025), t)
        assert t.counters.reads <= 12

    def test_linear_reads_proportional_to_offset(self):
        keys = list(range(0, 1000, 2))
        data = traced(keys)
        t = PerfTracer()
        linear_search(data, 101, SearchBound(0, 501), t)
        assert 45 <= t.counters.reads <= 60

    def test_linear_emits_one_scan_event(self):
        keys = list(range(0, 1000, 2))
        data = traced(keys)
        calls = []

        class Spy(NullTracer):
            def scan(self, *args):
                calls.append(args)

        assert linear_search(data, 101, SearchBound(0, 501), Spy()) == 51
        assert calls == [
            (data.addr(0), data.itemsize, 52, 3, "lastmile.linear", True)
        ]
        # Running off the end of the bound: every branch not taken.
        calls.clear()
        assert linear_search(data, 101, SearchBound(10, 20), Spy()) == 20
        assert calls == [
            (data.addr(10), data.itemsize, 10, 3, "lastmile.linear", False)
        ]
        # An empty bound is an empty scan: no events at all.
        calls.clear()
        assert linear_search(data, 101, SearchBound(7, 7), Spy()) == 7
        assert [c[2] for c in calls] == [0]
        t = PerfTracer()
        linear_search(data, 101, SearchBound(7, 7), t)
        assert t.snapshot() == PerfTracer().snapshot()

    def test_interpolation_few_probes_on_uniform(self):
        keys = list(range(0, 100_000, 7))
        data = traced(keys)
        t = PerfTracer()
        pos = interpolation_search(data, 50_000, SearchBound(0, len(keys) + 1), t)
        assert pos == bisect.bisect_left(keys, 50_000)
        tb = PerfTracer()
        binary_search(data, 50_000, SearchBound(0, len(keys) + 1), tb)
        assert t.counters.reads < tb.counters.reads

    def test_binary_branches_mispredict_half(self):
        rng = np.random.default_rng(0)
        keys = np.sort(rng.integers(0, 2**60, 4_096)).tolist()
        data = traced(keys)
        t = PerfTracer()
        for probe in rng.integers(0, 2**60, 200).tolist():
            binary_search(data, int(probe), SearchBound(0, len(keys) + 1), t)
        miss_rate = t.counters.branch_misses / t.counters.branches
        assert 0.3 < miss_rate < 0.7
