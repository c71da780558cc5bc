"""The committed golden grids must pass unchanged under both memsim engines.

Production measures on the fast engine; the reference engine is the
executable spec it is held counter-identical to.  Running whole cells
(and the fig16 report) through each engine reproduces the exact golden
counters -- which is also why the measurement-cache key carries no
engine: a measurement is the same under either.
"""

from __future__ import annotations

import json

import pytest

from conftest import memsim_engine
from repro.bench.config import BenchSettings
from repro.bench.experiments import common, fig16_multithread
from repro.memsim import tracer
from repro.memsim.engine import default_engine_name
from test_fig16_golden import GOLDEN_PATH as FIG16_GOLDEN_PATH
from test_fig16_golden import GOLDEN_SETTINGS as FIG16_SETTINGS
from test_golden_regression import GOLDEN, assert_matches_golden, cell_of

ENGINES = ["reference", "fast"]


@pytest.fixture(autouse=True)
def _isolated_memo():
    common.set_active_cache(None)
    common.clear_caches()
    yield
    common.clear_caches()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "record",
    GOLDEN,
    ids=[f"{r['index']}-{r['dataset']}-{r['key_bits']}bit" for r in GOLDEN],
)
def test_golden_grid_matches(record, engine):
    with memsim_engine(engine):
        measurement = cell_of(record).run()
    assert_matches_golden(measurement, record)


def test_default_engine_is_fast_and_matches_golden():
    # No engine selection at all: a plain run builds the fast engine.
    assert default_engine_name() == "fast"
    assert tracer.PerfTracer().engine.name == "fast"
    record = GOLDEN[0]
    assert_matches_golden(cell_of(record).run(), record)


@pytest.mark.parametrize("engine", ENGINES)
def test_fig16_report_is_byte_identical(engine):
    with open(FIG16_GOLDEN_PATH) as f:
        golden = f.read()
    with memsim_engine(engine):
        report = fig16_multithread.run(BenchSettings(**FIG16_SETTINGS))
    assert report == golden


def test_cache_key_fields_have_no_engine():
    fields = cell_of(GOLDEN[0]).key_fields()
    assert "engine" not in json.dumps(fields)
