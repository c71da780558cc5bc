"""Persistent measurement cache: key scheme and lossless round-trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.bench import cache as cache_mod
from repro.bench.cache import (
    MeasurementCache,
    SimResultCache,
    cache_key,
    measurement_from_record,
    measurement_to_record,
)
from repro.bench.cells import MeasureCell, freeze_config
from repro.bench.config import BenchSettings
from repro.bench.harness import Measurement
from repro.bench.parallel import run_cells
from repro.memsim.counters import PerfCountersF
from repro.obs.metrics import get_registry
from repro.serve.sweep import clear_sim_results, open_loop_task, run_sim_tasks

SETTINGS = BenchSettings(n_keys=2_000, n_lookups=25, warmup=15)


def make_cell(**overrides) -> MeasureCell:
    base = dict(
        dataset="amzn",
        n_keys=2_000,
        seed=0,
        key_bits=64,
        index="RMI",
        config=freeze_config({"branching": 64}),
        n_lookups=25,
        warmup=15,
        warm=True,
        search="binary",
    )
    base.update(overrides)
    return MeasureCell(**base)


# Strategy: config dicts shaped like real size_sweep_configs output
# (int and string hyperparameter values).
config_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=1,
        max_size=8,
    ),
)
configs = st.dictionaries(
    st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=1,
        max_size=8,
    ),
    config_values,
    max_size=4,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestCacheKey:
    def test_stable_for_equal_cells(self):
        assert cache_key(make_cell()) == cache_key(make_cell())

    def test_insensitive_to_config_dict_ordering(self):
        a = MeasureCell.make(
            "amzn", "RMI", {"branching": 64, "stage1": "cubic"}, SETTINGS
        )
        b = MeasureCell.make(
            "amzn", "RMI", {"stage1": "cubic", "branching": 64}, SETTINGS
        )
        assert a == b
        assert cache_key(a) == cache_key(b)

    @given(config_a=configs, config_b=configs)
    @hyp_settings(max_examples=200, deadline=None)
    def test_distinct_configs_never_collide(self, config_a, config_b):
        a = make_cell(config=freeze_config(config_a))
        b = make_cell(config=freeze_config(config_b))
        if config_a == config_b:
            assert cache_key(a) == cache_key(b)
        else:
            assert cache_key(a) != cache_key(b)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dataset", "osm"),
            ("n_keys", 2_001),
            ("seed", 1),
            ("key_bits", 32),
            ("index", "PGM"),
            ("n_lookups", 26),
            ("warmup", 16),
            ("warm", False),
            ("search", "linear"),
        ],
    )
    def test_every_identity_field_feeds_the_key(self, field, value):
        assert cache_key(make_cell(**{field: value})) != cache_key(make_cell())

    def test_schema_version_feeds_the_key(self):
        cell = make_cell()
        assert cache_key(cell, schema_version=1) != cache_key(
            cell, schema_version=2
        )


def make_measurement(**overrides) -> Measurement:
    base = dict(
        index="RMI",
        dataset="amzn",
        config={"branching": 64},
        n_keys=2_000,
        size_bytes=1312,
        build_seconds=0.0123,
        counters=PerfCountersF(instructions=101.5, llc_misses=7.25),
        latency_ns=623.3987745285336,
        fence_latency_ns=817.1311507936507,
        avg_log2_bound=11.928845877923553,
        n_lookups=25,
        warm=True,
        search="binary",
        key_bits=64,
    )
    base.update(overrides)
    return Measurement(**base)


class TestLosslessRoundTrip:
    def test_record_round_trip_through_json(self):
        m = make_measurement()
        record = json.loads(json.dumps(measurement_to_record(m)))
        assert measurement_from_record(record) == m

    @given(
        latency=finite_floats,
        fence=finite_floats,
        bound=finite_floats,
        instructions=finite_floats,
        misses=finite_floats,
    )
    @hyp_settings(max_examples=100, deadline=None)
    def test_floats_survive_json_exactly(
        self, latency, fence, bound, instructions, misses
    ):
        m = make_measurement(
            latency_ns=latency,
            fence_latency_ns=fence,
            avg_log2_bound=bound,
            counters=PerfCountersF(
                instructions=instructions, llc_misses=misses
            ),
        )
        record = json.loads(json.dumps(measurement_to_record(m)))
        restored = measurement_from_record(record)
        assert restored == m


class TestMeasurementCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell, m = make_cell(), make_measurement()
        assert cache.get(cell) is None
        cache.put(cell, m)
        assert cache.get(cell) == m
        assert len(cache) == 1

    def test_hit_miss_stats(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell = make_cell()
        cache.get(cell)
        cache.put(cell, make_measurement())
        cache.get(cell)
        assert (cache.hits, cache.misses) == (1, 1)
        cache.reset_stats()
        assert (cache.hits, cache.misses) == (0, 0)

    def test_distinct_cells_stored_separately(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "c"))
        cache.put(make_cell(), make_measurement())
        cache.put(make_cell(index="PGM"), make_measurement(index="PGM"))
        assert len(cache) == 2
        assert cache.get(make_cell(index="PGM")).index == "PGM"

    def test_schema_bump_invalidates_old_entries(self, tmp_path, monkeypatch):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell = make_cell()
        cache.put(cell, make_measurement())
        assert cache.get(cell) is not None
        monkeypatch.setattr(
            cache_mod,
            "CACHE_SCHEMA_VERSION",
            cache_mod.CACHE_SCHEMA_VERSION + 1,
        )
        assert cache.get(cell) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "_warned_corrupt", set())
        cache = MeasurementCache(str(tmp_path / "c"))
        cell = make_cell()
        cache.put(cell, make_measurement())
        path = cache._path(cell)
        with open(path, "w") as f:
            f.write("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert cache.get(cell) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_missing_directory_is_empty(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "nope"))
        assert len(cache) == 0
        assert cache.get(make_cell()) is None


class TestCorruptEntries:
    """An entry that exists but will not parse is recomputed, counted and
    warned about -- never silently treated as an ordinary miss."""

    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "_warned_corrupt", set())

    @staticmethod
    def counter(name):
        return get_registry().counter(name).value

    @staticmethod
    def record_without_build_time(measurement):
        rec = measurement_to_record(measurement)
        del rec["build_seconds"]
        return json.dumps(rec, sort_keys=True)

    @staticmethod
    def truncate(path):
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[: len(data) // 2])

    def test_measurement_cache_counts_and_recomputes(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell = make_cell()
        (first,), _ = run_cells([cell], jobs=1, cache=cache, memo={})
        self.truncate(cache._path(cell))
        before = self.counter("bench.cache.corrupt")
        with pytest.warns(RuntimeWarning, match="bench.cache.corrupt"):
            (again,), stats = run_cells([cell], jobs=1, cache=cache, memo={})
        assert self.counter("bench.cache.corrupt") - before == 1
        assert stats.executed == 1
        # Everything but the wall-clock build time is byte-identical, and
        # the rewritten entry reads back as a hit.
        record = self.record_without_build_time
        assert record(again) == record(first)
        assert record(cache.get(cell)) == record(first)

    def test_sim_result_cache_counts_and_recomputes(self, tmp_path):
        cache = SimResultCache(str(tmp_path / "serving"))
        task = open_loop_task(
            make_measurement(), rate_per_sec=2e6, n_requests=200, seed=7,
            n_cores=1,
        )
        clear_sim_results()
        run_sim_tasks([task], cache=cache)
        path = cache._path(task)
        with open(path, "rb") as f:
            original = f.read()
        self.truncate(path)
        clear_sim_results()
        before = self.counter("serve.sweep.cache.corrupt")
        with pytest.warns(RuntimeWarning, match="serve.sweep.cache.corrupt"):
            run_sim_tasks([task], cache=cache)
        clear_sim_results()
        assert self.counter("serve.sweep.cache.corrupt") - before == 1
        with open(path, "rb") as f:
            assert f.read() == original

    def test_warns_once_per_process(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "c"))
        cells = [make_cell(), make_cell(index="PGM")]
        for cell in cells:
            cache.put(cell, make_measurement(index=cell.index))
            self.truncate(cache._path(cell))
        before = self.counter("bench.cache.corrupt")
        with pytest.warns(RuntimeWarning) as caught:
            assert cache.get(cells[0]) is None
            assert cache.get(cells[1]) is None
        assert len(caught) == 1
        assert self.counter("bench.cache.corrupt") - before == 2
