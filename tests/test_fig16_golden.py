"""Figure 16 must survive the contention-model refactor unchanged.

``tests/data/golden_fig16.txt`` is the full fig16 report recorded at a
tiny scale *before* the machine/contention model moved from
``repro.bench.multithread`` into ``repro.serve.contention``.  The report
is a pure function of deterministic measurements and the model math, so
a byte-identical reproduction means the refactor moved code without
changing a single number.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.config import BenchSettings
from repro.bench.experiments import common, fig16_multithread

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_fig16.txt"
)

#: Must match the settings the golden file was recorded with.
GOLDEN_SETTINGS = dict(
    n_keys=3_000, n_lookups=60, warmup=30, max_configs=2,
    datasets=["amzn", "osm"],
)


@pytest.fixture(autouse=True)
def _isolated_memo():
    common.set_active_cache(None)
    common.clear_caches()
    yield
    common.clear_caches()


def test_fig16_report_matches_pre_refactor_golden():
    with open(GOLDEN_PATH) as f:
        golden = f.read()
    report = fig16_multithread.run(BenchSettings(**GOLDEN_SETTINGS))
    assert report == golden

