"""Shared fixtures for the test suite."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.datasets import make_dataset, make_workload
from repro.memsim import AddressSpace, FastEngine, ReferenceEngine, TracedArray

#: The memsim engines by name: the production fast engine and the
#: reference engine (the executable spec it is held counter-identical to).
MEMSIM_ENGINES = {"reference": ReferenceEngine, "fast": FastEngine}


def memsim_engine(name: str):
    """Context manager: every ``PerfTracer()`` built inside it uses the
    named engine, so whole measurement pipelines can run on the
    reference engine."""
    return mock.patch("repro.memsim.tracer.FastEngine", MEMSIM_ENGINES[name])


@pytest.fixture(scope="session")
def amzn_small():
    return make_dataset("amzn", 5_000, seed=3)


@pytest.fixture(scope="session")
def osm_small():
    return make_dataset("osm", 5_000, seed=3)


@pytest.fixture(scope="session")
def all_datasets_small():
    return {
        name: make_dataset(name, 4_000, seed=5)
        for name in ("amzn", "face", "osm", "wiki")
    }


@pytest.fixture()
def amzn_workload(amzn_small):
    return make_workload(amzn_small, 400, seed=11, mode="mixed")


@pytest.fixture()
def traced_keys(amzn_small):
    """(space, data TracedArray) pair over the small amzn dataset."""
    space = AddressSpace()
    data = TracedArray.allocate(space, amzn_small.keys, name="data")
    return space, data


def build(name, dataset, **config):
    """Helper: build an index over a dataset in a fresh space."""
    from repro.core import make_index

    space = AddressSpace()
    data = TracedArray.allocate(space, dataset.keys, name="data")
    return make_index(name, **config).build(data, space)


@pytest.fixture()
def extreme_probe_keys(amzn_small):
    keys = amzn_small.keys
    return [
        0,
        1,
        int(keys[0]) - 1,
        int(keys[0]),
        int(keys[0]) + 1,
        int(keys[len(keys) // 2]),
        int(keys[-1]) - 1,
        int(keys[-1]),
        int(keys[-1]) + 1,
        2**63,
        2**64 - 1,
    ]
