"""The codec itself (:mod:`repro.codec`) and a round trip of every type
that uses it.

Unit tests pin the encoding rules (pairs become objects, tuples become
lists, omit-when-default, schema tags, annotation-driven coercion, the
cached field plans); the hypothesis suite checks, for every codec type,
that ``from_dict(to_dict(x)) == x`` and that ``to_json`` is stable under
one JSON round trip.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec
from repro.codec import Codec, content_hash, decode, encode, omit_default
from repro.serve.cluster import ShardStats
from repro.serve.contention import MachineModel
from repro.serve.faults import FaultConfig
from repro.serve.metrics import LatencySummary
from repro.serve.reconfig import (
    AutoscaleSpec,
    MergeSpec,
    RebuildSpec,
    ReconfigSpec,
    ShardEpoch,
    SplitSpec,
)
from repro.serve.router import RouterPolicy
from repro.serve.scenario import (
    ARRIVAL_SHAPES,
    SLO_CLASSES,
    AdmissionSpec,
    ArrivalSpec,
    KeySpaceSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
    single_tenant_spec,
)
from repro.serve.sweep import ClusterRunStats, TenancyRunStats, TenantRunStats
from repro.serve.telemetry import (
    AttemptTrace,
    TelemetryConfig,
    TimeSeries,
    WindowStats,
)
from repro.serve.trace import TenantTrace


# ---------------------------------------------------------------------------
# encoding rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inner(Codec):
    x: float
    label: str = "a"


@dataclass(frozen=True)
class Outer(Codec):
    codec_schema = 3

    n: int
    inner: Inner
    pairs: Tuple[Tuple[str, float], ...] = ()
    nested_pairs: Tuple[Tuple[Tuple[str, int], ...], ...] = ()
    rows: Tuple[Tuple[str, int, float], ...] = ()
    items: Tuple[Inner, ...] = ()
    listed: List[int] = field(default_factory=list)
    maybe: Optional[Inner] = None
    number: Union[int, float] = 0
    extra: Optional[float] = omit_default(None)
    tags: Tuple[str, ...] = omit_default(())


def sample() -> Outer:
    return Outer(
        n=2,
        inner=Inner(1.5),
        pairs=(("a", 1.0), ("b", 2.0)),
        nested_pairs=((("k", 1),), ()),
        rows=(("r", 1, 2.5),),
        items=(Inner(0.25, "z"),),
        listed=[3, 4],
        maybe=Inner(7.0),
        number=5,
    )


class TestEncode:
    def test_layout(self):
        assert encode(sample()) == {
            "schema": 3,
            "n": 2,
            "inner": {"x": 1.5, "label": "a"},
            "pairs": {"a": 1.0, "b": 2.0},
            "nested_pairs": [{"k": 1}, {}],
            "rows": [["r", 1, 2.5]],
            "items": [{"x": 0.25, "label": "z"}],
            "listed": [3, 4],
            "maybe": {"x": 7.0, "label": "a"},
            "number": 5,
        }

    def test_omitted_fields_appear_once_set(self):
        d = encode(Outer(n=1, inner=Inner(1.0), extra=2.5, tags=("t",)))
        assert d["extra"] == 2.5 and d["tags"] == ["t"]
        assert "maybe" in encode(Outer(n=1, inner=Inner(1.0)))

    def test_values_are_emitted_as_stored(self):
        # A float field holding an int stays an int: encoding never
        # coerces, so stored keys of such values keep their bytes.
        assert encode(Inner(3))["x"] == 3
        assert isinstance(encode(Inner(3))["x"], int)

    def test_content_key_hashes_the_canonical_form(self):
        s = sample()
        assert s.content_key() == content_hash(encode(s))
        assert s.to_json() == codec.canonical_json(encode(s))
        assert json.loads(s.to_json(indent=2)) == encode(s)


class TestDecode:
    def test_round_trip(self):
        s = sample()
        assert Outer.from_dict(s.to_dict()) == s
        assert Outer.from_json(s.to_json()) == s

    def test_coerces_by_annotation(self):
        d = encode(sample())
        d["inner"]["x"] = 4
        d["pairs"] = {"a": 1}
        d["rows"] = [["r", 1, 2]]
        again = Outer.from_dict(d)
        assert isinstance(again.inner.x, float)
        assert isinstance(again.pairs[0][1], float)
        assert isinstance(again.rows[0][2], float)
        assert isinstance(again.listed, list)

    def test_unannotated_union_passes_through(self):
        d = encode(sample())
        d["number"] = 6
        assert isinstance(Outer.from_dict(d).number, int)

    def test_missing_keys_take_defaults_and_unknown_keys_are_ignored(self):
        again = Outer.from_dict(
            {"schema": 3, "n": 1, "inner": {"x": 1.0}, "bogus": 1}
        )
        assert again == Outer(n=1, inner=Inner(1.0))

    def test_missing_required_key_raises(self):
        with pytest.raises(TypeError):
            Outer.from_dict({"schema": 3, "n": 1})

    @pytest.mark.parametrize("tag", [None, 2, "3"])
    def test_schema_tag_is_checked(self, tag):
        d = encode(sample())
        if tag is None:
            del d["schema"]
        else:
            d["schema"] = tag
        with pytest.raises(ValueError, match="schema"):
            Outer.from_dict(d)


def test_field_plans_resolve_annotations_once(monkeypatch):
    @dataclass(frozen=True)
    class Fresh(Codec):
        a: int
        b: Optional[float] = None

    encode(Fresh(1))

    def forbidden(*args, **kwargs):
        raise AssertionError("annotations resolved again")

    monkeypatch.setattr(typing, "get_type_hints", forbidden)
    assert Fresh.from_dict(Fresh(2, 0.5).to_dict()) == Fresh(2, 0.5)


# ---------------------------------------------------------------------------
# schema tags on the real types
# ---------------------------------------------------------------------------


def _series() -> TimeSeries:
    return TimeSeries(
        window_ns=10.0,
        n_shards=1,
        windows=(
            WindowStats(
                index=0, completed=2, shard_completed=(2,), shard_failed=(0,)
            ),
        ),
    )


def _trace() -> TenantTrace:
    return TenantTrace([1.0, 2.0], [5, 6], [0, 0], ["t"])


class TestSchemaTags:
    def test_time_series_rejects_a_mismatched_tag(self):
        d = _series().to_dict()
        d["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            TimeSeries.from_dict(d)

    @pytest.mark.parametrize(
        "value",
        [
            single_tenant_spec(1e5, 10),
            ReconfigSpec(merges=(MergeSpec(at_ns=1.0, shard=0),)),
            _series(),
            _trace(),
        ],
        ids=["scenario", "reconfig", "series", "trace"],
    )
    def test_missing_tag_raises(self, value):
        d = value.to_dict()
        assert "schema" in d
        del d["schema"]
        with pytest.raises(ValueError, match="schema"):
            type(value).from_dict(d)


# ---------------------------------------------------------------------------
# every codec type round-trips
# ---------------------------------------------------------------------------

floats = st.floats(
    min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False
)
counts = st.integers(min_value=0, max_value=10**6)
small = st.integers(min_value=0, max_value=8)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6
)


@st.composite
def arrival_specs(draw):
    shape = draw(st.sampled_from(sorted(ARRIVAL_SHAPES)))
    allowed = ARRIVAL_SHAPES[shape]
    knobs = (
        draw(st.lists(st.sampled_from(allowed), unique=True)) if allowed else []
    )
    params = tuple(
        (k, draw(st.integers(1, 500)) if k.endswith(("requests", "request"))
         else draw(floats))
        for k in knobs
    )
    return ArrivalSpec(
        rate_per_sec=draw(floats),
        n_requests=draw(st.integers(1, 10**6)),
        seed=draw(counts),
        shape=shape,
        params=params,
    )


@st.composite
def keyspace_specs(draw):
    lo = draw(st.floats(0.0, 0.5))
    return KeySpaceSpec(
        lo_frac=lo,
        hi_frac=draw(st.floats(0.6, 1.0)),
        hot_theta=draw(st.none() | st.floats(0.01, 5.0)),
        seed=draw(counts),
    )


@st.composite
def tenant_specs(draw, name):
    return TenantSpec(
        name=name,
        arrivals=draw(arrival_specs()),
        keyspace=draw(keyspace_specs()),
        slo_class=draw(st.sampled_from(SLO_CLASSES)),
        p99_slo_ns=draw(st.none() | floats),
    )


topology_specs = st.builds(
    TopologySpec,
    n_shards=st.integers(1, 8),
    n_replicas=st.integers(1, 4),
    n_cores=st.integers(1, 4),
)
depths = st.none() | st.integers(1, 100)
admission_specs = st.builds(
    AdmissionSpec,
    enabled=st.booleans(),
    gold_depth=depths,
    silver_depth=depths,
    bronze_depth=depths,
)
router_policies = st.builds(
    RouterPolicy,
    hedge_after_ns=st.none() | floats,
    max_attempts=st.integers(1, 8),
    backoff_base_ns=floats,
    backoff_cap_ns=floats,
    batch_window_ns=st.floats(0.0, 1e6),
)
fault_configs = st.builds(
    FaultConfig,
    crash_mttf_ns=st.none() | floats,
    crash_mttr_ns=floats,
    slow_mttf_ns=st.none() | floats,
    slow_mttr_ns=floats,
    slow_factor=st.floats(1.01, 50.0),
    seed=counts,
)
split_specs = st.builds(
    SplitSpec, at_ns=floats, shard=small, at_key=st.integers(0, 2**63)
)
merge_specs = st.builds(MergeSpec, at_ns=floats, shard=small)
rebuild_specs = st.builds(
    RebuildSpec,
    at_ns=floats,
    shard=small,
    replica=small,
    build_ns=floats,
    speedup=st.floats(0.1, 10.0),
)


@st.composite
def autoscale_specs(draw):
    up = draw(st.integers(1, 50))
    lo = draw(st.integers(1, 4))
    return AutoscaleSpec(
        interval_ns=draw(floats),
        up_depth=up,
        down_depth=draw(st.integers(0, up - 1)),
        min_replicas=lo,
        max_replicas=draw(st.integers(lo, 12)),
        up_p99_ns=draw(st.none() | floats),
    )


reconfig_specs = st.builds(
    ReconfigSpec,
    splits=st.lists(split_specs, max_size=3).map(tuple),
    merges=st.lists(merge_specs, max_size=3).map(tuple),
    rebuilds=st.lists(rebuild_specs, max_size=3).map(tuple),
    autoscale=st.none() | autoscale_specs(),
)


@st.composite
def scenario_specs(draw):
    tenant_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    return ScenarioSpec(
        name=draw(names),
        tenants=tuple(draw(tenant_specs(n)) for n in tenant_names),
        topology=draw(topology_specs),
        policy=draw(router_policies),
        faults=draw(fault_configs),
        admission=draw(admission_specs),
        fault_horizon_ns=draw(st.none() | floats),
        reconfig=draw(st.none() | reconfig_specs),
    )


@st.composite
def shard_epochs(draw):
    bounds = draw(
        st.lists(st.integers(0, 2**40), min_size=1, max_size=6, unique=True)
    )
    owners = draw(st.permutations(range(len(bounds) + 2)))[: len(bounds)]
    return ShardEpoch(
        version=draw(small),
        time_ns=draw(floats),
        bounds=tuple(sorted(bounds)),
        owners=tuple(owners),
    )


@st.composite
def window_stats(draw):
    n = draw(st.integers(0, 3))
    return WindowStats(
        index=draw(counts),
        completed=draw(counts),
        failed=draw(counts),
        shed=draw(counts),
        retries=draw(counts),
        hedges=draw(counts),
        violations=draw(counts),
        max_queue_depth=draw(counts),
        p50_ns=draw(st.none() | floats),
        p99_ns=draw(st.none() | floats),
        shard_completed=tuple(draw(st.lists(counts, min_size=n, max_size=n))),
        shard_failed=tuple(draw(st.lists(counts, min_size=n, max_size=n))),
        class_stats=tuple(
            (c, draw(counts), draw(counts), draw(counts), draw(counts))
            for c in draw(st.lists(st.sampled_from(SLO_CLASSES), unique=True))
        ),
    )


time_series = st.builds(
    TimeSeries,
    window_ns=floats,
    n_shards=st.integers(1, 4),
    windows=st.lists(window_stats(), max_size=3).map(tuple),
)
attempt_traces = st.builds(
    AttemptTrace,
    rid=counts,
    attempt=st.integers(1, 4),
    shard=small,
    replica=small,
    core=small,
    cause=st.sampled_from(["arrival", "retry", "hedge"]),
    dispatch_ns=floats,
    start_ns=floats,
    finish_ns=floats,
    status=st.sampled_from(["completed", "absorbed", "cancelled", "lost"]),
)
summaries = st.builds(
    LatencySummary,
    n=counts,
    mean_ns=floats,
    p50_ns=floats,
    p95_ns=floats,
    p99_ns=floats,
    p999_ns=floats,
    max_ns=floats,
    throughput_per_sec=floats,
)
shard_stats = st.builds(
    ShardStats,
    shard=small,
    completed=counts,
    retries=counts,
    hedges=counts,
    crashes=counts,
    slow_events=counts,
    max_queue_depth=counts,
)
cluster_stats = st.builds(
    ClusterRunStats,
    requests=counts,
    completed=counts,
    failed=counts,
    total_retries=counts,
    total_hedges=counts,
    crashes=counts,
    slow_events=counts,
    makespan_ns=floats,
    summary=st.none() | summaries,
    shard_stats=st.lists(shard_stats, max_size=4),
    epoch_count=st.integers(1, 5),
    final_shards=st.integers(0, 6),
    final_replicas=st.integers(0, 6),
)
tenant_stats = st.builds(
    TenantRunStats,
    tenant=small,
    name=names,
    slo_class=st.sampled_from(SLO_CLASSES),
    p99_slo_ns=st.none() | floats,
    requests=counts,
    completed=counts,
    failed=counts,
    shed=counts,
    retries=counts,
    hedges=counts,
    summary=st.none() | summaries,
    requests_over_slo=counts,
)
tenancy_stats = st.builds(
    TenancyRunStats,
    requests=counts,
    total_shed=counts,
    makespan_ns=floats,
    summary=st.none() | summaries,
    tenants=st.lists(tenant_stats, max_size=3),
    epoch_count=st.integers(1, 5),
    final_shards=st.integers(0, 6),
    final_replicas=st.integers(0, 6),
)

CODEC_TYPES = {
    "ArrivalSpec": arrival_specs(),
    "KeySpaceSpec": keyspace_specs(),
    "TenantSpec": tenant_specs("t"),
    "TopologySpec": topology_specs,
    "AdmissionSpec": admission_specs,
    "ScenarioSpec": scenario_specs(),
    "SplitSpec": split_specs,
    "MergeSpec": merge_specs,
    "RebuildSpec": rebuild_specs,
    "AutoscaleSpec": autoscale_specs(),
    "ReconfigSpec": reconfig_specs,
    "ShardEpoch": shard_epochs(),
    "WindowStats": window_stats(),
    "TimeSeries": time_series,
    "AttemptTrace": attempt_traces,
    "LatencySummary": summaries,
    "ClusterRunStats": cluster_stats,
    "TenantRunStats": tenant_stats,
    "TenancyRunStats": tenancy_stats,
}


@pytest.mark.parametrize("name", sorted(CODEC_TYPES))
def test_every_codec_type_round_trips(name):
    @settings(max_examples=40, deadline=None)
    @given(CODEC_TYPES[name])
    def check(value):
        cls = type(value)
        assert cls.__name__ == name
        assert cls.from_dict(value.to_dict()) == value
        text = value.to_json()
        again = cls.from_json(text)
        assert again == value
        assert again.to_json() == text
        assert again.content_key() == value.content_key()

    check()


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        router_policies,
        fault_configs,
        st.builds(
            TelemetryConfig,
            window_ns=floats,
            slo_p99_ns=st.none() | floats,
        ),
        st.builds(
            MachineModel,
            cores=st.integers(1, 64),
            threads=st.integers(1, 128),
            ht_gain=st.floats(0.0, 1.0),
            dram_bandwidth_bytes=floats,
        ),
    )
)
def test_plain_dataclasses_round_trip_through_the_codec(value):
    data = json.loads(codec.canonical_json(encode(value)))
    assert decode(type(value), data) == value


def test_trace_round_trip_and_key():
    trace = _trace()
    again = TenantTrace.from_json(trace.to_json())
    assert again == trace
    assert again.content_key() == trace.content_key() == content_hash(
        trace.to_dict()
    )
