"""FITing-Tree extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validation import validate_index
from repro.learned.fitting_tree import FITingTreeIndex
from repro.memsim import PerfTracer

from conftest import build


class TestFITingValidity:
    @pytest.mark.parametrize("epsilon", [4, 32, 256])
    def test_valid_on_all_datasets(self, all_datasets_small, epsilon):
        for name, ds in all_datasets_small.items():
            idx = build("FITing", ds, epsilon=epsilon)
            probes = list(ds.keys[::41]) + [0, 2**64 - 1]
            assert validate_index(idx, probes) is None, name

    def test_valid_on_absent_keys(self, amzn_small, amzn_workload):
        idx = build("FITing", amzn_small, epsilon=16)
        assert validate_index(idx, amzn_workload.keys_py) is None

    def test_extreme_probes(self, amzn_small, extreme_probe_keys):
        idx = build("FITing", amzn_small, epsilon=16)
        assert validate_index(idx, extreme_probe_keys) is None

    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=300, unique=True),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_validity_property(self, keys, probe):
        keys.sort()
        idx = FITingTreeIndex(epsilon=8).build(np.array(keys, dtype=np.uint64))
        assert validate_index(idx, [probe]) is None


class TestFITingStructure:
    def test_bound_width_limited_by_epsilon(self, amzn_small):
        eps = 16
        idx = build("FITing", amzn_small, epsilon=eps)
        for key in amzn_small.keys[::97]:
            assert len(idx.lookup(int(key))) <= 2 * eps + 3

    def test_same_segments_as_pgm_bottom(self, osm_small):
        """FITing-Tree and PGM share the segmentation; only the top
        structure differs."""
        from repro.learned.pgm import PGMIndex

        fit = build("FITing", osm_small, epsilon=32)
        pgm = build("PGM", osm_small, epsilon=32)
        assert fit.n_segments == pgm._levels[-1].n_segments

    def test_fewer_reads_than_btree_on_data(self, amzn_small):
        """The point of FITing-Tree: the tree only indexes segments."""
        from repro.traditional.btree import BTreeIndex

        fit = build("FITing", amzn_small, epsilon=64)
        bt = BTreeIndex(gap=1).build(amzn_small.keys)
        tf, tb = PerfTracer(), PerfTracer()
        for key in amzn_small.keys[::53]:
            fit.lookup(int(key), tf)
            bt.lookup(int(key), tb)
        assert fit.size_bytes() < bt.size_bytes() / 4

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FITingTreeIndex(epsilon=0)
        with pytest.raises(ValueError):
            FITingTreeIndex(fanout=1)

    def test_sweep_monotone_sizes(self, amzn_small):
        sizes = [
            build("FITing", amzn_small, **cfg).size_bytes()
            for cfg in FITingTreeIndex.size_sweep_configs(amzn_small.n)
        ]
        assert sizes == sorted(sizes)

