"""Differential suite: the fast engine IS the reference engine, counter-wise.

Hypothesis drives random read/instr/branch/flush streams through both
engines (the reference spec and the production fast engine) and asserts
byte-identical
:class:`PerfCounters` -- not just at the end, but at every intermediate
snapshot.  Streams mix tight spatial locality (repeated lines and
pages, the fast paths' home turf) with scattered addresses (eviction
pressure), because the engines' shortcuts are exactly the places where
a subtle state divergence would hide.

The same property is asserted for record-replay: replaying a recorded
stream must equal executing it directly, on either engine -- including
repeat replays of the *same* trace objects.

``scan`` events join the alphabet: empty, single-step and long runs,
aligned and misaligned, with element sizes that straddle lines and runs
that cross pages.  The fast engine's bulk ``scan`` is held to the plain
expansion, and an engine after its dirty-set flush to a fresh engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MEMSIM_ENGINES
from repro.core.bounds import SearchBound
from repro.memsim import (
    Cache,
    CacheHierarchy,
    FastEngine,
    PerfTracer,
    ReferenceEngine,
    SiteInterner,
    TracedArray,
    TraceRecorder,
)
from repro.memsim.engine import expand_scan
from repro.memsim.tlb import TLB
from repro.memsim.trace import K_REPEAT
from repro.search.last_mile import _LINEAR_STEP_INSTR, linear_search

#: Engine names, the reference first.
ENGINE_NAMES = tuple(MEMSIM_ENGINES)


def _tracer(name, sites=None):
    return PerfTracer(engine=MEMSIM_ENGINES[name](sites=sites))

_SITES = ["bs.cmp", "btree.descend", "rmi.clamp", "loop"]

# A handful of base addresses reused across events gives the streams
# real temporal locality; small offsets give spatial locality within
# lines and pages; the huge bases exercise distinct TLB pages.
_BASES = [0, 4096, 65536, 1 << 20, (1 << 20) + 64, 1 << 30, (1 << 44) - 8192]


def _events():
    read = st.tuples(
        st.just("read"),
        st.sampled_from(_BASES),
        st.integers(0, 5000),
        st.sampled_from([1, 2, 4, 8, 16, 64, 200]),
    )
    branch = st.tuples(
        st.just("branch"), st.sampled_from(_SITES), st.booleans()
    )
    instr = st.tuples(st.just("instr"), st.integers(1, 12))
    flush = st.tuples(st.just("flush"))
    snapshot = st.tuples(st.just("snapshot"))
    return st.lists(
        st.one_of(read, branch, instr, _scans(), flush, snapshot),
        max_size=400,
    )


def _scans():
    """("scan", base, offset, size, count, step_instr, site, last_taken).

    Offsets are either arbitrary (mostly misaligned) or a multiple of
    the element size; sizes include ones that straddle lines; counts
    cover empty, single-step, short and page-crossing runs (a 4 KiB
    page holds 512 8-byte elements).
    """
    size = st.sampled_from([1, 2, 4, 8, 16, 64, 3, 24, 100])
    count = st.one_of(
        st.sampled_from([0, 1]), st.integers(2, 40), st.integers(500, 700)
    )

    def build(t):
        base, offset, size, aligned, count, step, site, last = t
        if aligned:
            offset -= offset % size
        return ("scan", base, offset, size, count, step, site, last)

    return st.tuples(
        st.sampled_from(_BASES),
        st.integers(0, 5000),
        size,
        st.booleans(),
        count,
        st.integers(0, 6),
        st.sampled_from(_SITES),
        st.booleans(),
    ).map(build)


def _apply(tracer, events):
    """Feed the tracer-interface events (read/branch/instr/scan) only."""
    for ev in events:
        if ev[0] == "read":
            tracer.read(ev[1] + ev[2], ev[3])
        elif ev[0] == "branch":
            tracer.branch(ev[1], ev[2])
        elif ev[0] == "instr":
            tracer.instr(ev[1])
        elif ev[0] == "scan":
            tracer.scan(ev[1] + ev[2], *ev[3:])


_LOOKUP_EVENTS = ("read", "branch", "instr", "scan")


def _drive(tracer, events):
    """Apply an event list; return the snapshots taken along the way."""
    snaps = [tracer.snapshot()]
    for ev in events:
        if ev[0] == "flush":
            tracer.flush_caches()
        elif ev[0] == "snapshot":
            snaps.append(tracer.snapshot())
        else:
            _apply(tracer, [ev])
    snaps.append(tracer.snapshot())
    return snaps


@given(_events())
@settings(max_examples=150, deadline=None)
def test_engines_are_counter_identical(events):
    ref_snaps = _drive(PerfTracer(engine=ReferenceEngine()), events)
    assert _drive(PerfTracer(), events) == ref_snaps


def _tiny_reference():
    return PerfTracer(
        caches=CacheHierarchy(
            l1=Cache(2 * 64, 2, "L1"),
            l2=Cache(8 * 64, 2, "L2"),
            l3=Cache(16 * 64, 4, "L3"),
        ),
        tlb=TLB(l1_entries=2, l2_entries=4),
    )


_TINY_KW = dict(
    l1=(2 * 64, 2), l2=(8 * 64, 2), l3=(16 * 64, 4), tlb_entries=(2, 4)
)


@given(_events())
@settings(max_examples=60, deadline=None)
def test_engines_identical_under_tiny_geometry(events):
    """Small caches/TLBs put every access on the eviction paths."""
    ref_snaps = _drive(_tiny_reference(), events)
    assert _drive(PerfTracer(engine=FastEngine(**_TINY_KW)), events) == (
        ref_snaps
    )


@given(_events())
@settings(max_examples=40, deadline=None)
def test_engines_identical_under_degenerate_geometry(events):
    """1-set/1-way caches and a 1-entry TLB: everything evicts, always."""
    ref = PerfTracer(
        caches=CacheHierarchy(
            l1=Cache(64, 1, "L1"),
            l2=Cache(2 * 64, 2, "L2"),
            l3=Cache(4 * 64, 4, "L3"),
        ),
        tlb=TLB(l1_entries=1, l2_entries=1),
    )
    kw = dict(l1=(64, 1), l2=(2 * 64, 2), l3=(4 * 64, 4), tlb_entries=(1, 1))
    ref_snaps = _drive(ref, events)
    assert _drive(PerfTracer(engine=FastEngine(**kw)), events) == ref_snaps


@given(_events())
@settings(max_examples=60, deadline=None)
def test_replay_equals_direct_execution(events):
    """Record through a recorder, replay on fresh engines of both kinds."""
    sites = SiteInterner()
    recorder = TraceRecorder(sites=sites)
    # Flushes and snapshots are measurement-loop concerns, not lookup
    # events; a trace holds only the tracer-visible stream.
    stream = [e for e in events if e[0] in _LOOKUP_EVENTS]
    _apply(recorder, stream)
    trace = recorder.finish()

    direct = _tracer("reference", sites)
    _apply(direct, stream)
    expected = direct.snapshot()

    for name in ENGINE_NAMES:
        t = _tracer(name, sites)
        t.replay(trace)
        assert t.snapshot() == expected, name
        # A second fresh engine replaying the same trace object.
        t2 = _tracer(name, sites)
        t2.replay(trace)
        assert t2.snapshot() == expected, name


@given(_events(), _events())
@settings(max_examples=40, deadline=None)
def test_replay_composes_with_live_events(events, events2):
    """Interleaving replays with direct calls keeps engines in lockstep."""
    stream = [e for e in events if e[0] in _LOOKUP_EVENTS]
    stream2 = [e for e in events2 if e[0] in _LOOKUP_EVENTS]
    sites = SiteInterner()
    recorder = TraceRecorder(sites=sites)
    _apply(recorder, stream)
    trace = recorder.finish()
    recorder2 = TraceRecorder(sites=sites)
    _apply(recorder2, stream2)
    trace2 = recorder2.finish()

    results = []
    for name in ENGINE_NAMES:
        t = _tracer(name, sites)
        t.replay(trace)  # from pristine state
        snaps = [t.snapshot()]
        t.replay(trace2)  # chained replay
        snaps.append(t.snapshot())
        _apply(t, stream)  # live events, then...
        t.replay(trace)  # ...a replay against warmed state
        snaps.append(t.snapshot())
        t.flush_caches()
        t.replay(trace)  # and again from cold
        t.flush_caches()
        t.replay(trace)
        snaps.append(t.snapshot())
        results.append(snaps)
    for name, snaps in zip(ENGINE_NAMES[1:], results[1:]):
        assert snaps == results[0], name


@given(st.integers(1, 9), st.integers(0, 64), st.booleans())
@settings(max_examples=60, deadline=None)
def test_repeat_compression_boundaries(run_len, offset, branch_between):
    """K_REPEAT runs -- across instr/branch gaps and page boundaries.

    A repeated same-line read run-length-compresses into one K_REPEAT
    event; a read on a different line (here: across the page boundary)
    must break the run.  Replay of the compressed trace is exact on
    every engine.
    """
    sites = SiteInterner()
    recorder = TraceRecorder(sites=sites)
    stream = [("read", 0, offset, 8)]
    for _ in range(run_len):
        stream.append(("read", 0, offset, 1))
        if branch_between:
            stream.append(("branch", "loop", True))
            stream.append(("instr", 2))
    # Same line again, then break the run across the page boundary.
    stream.append(("read", 0, offset, 1))
    stream.append(("read", 4096 - 32, 0, 64))
    stream.append(("read", 0, offset, 1))
    _apply(recorder, stream)
    trace = recorder.finish()
    assert K_REPEAT in trace.kinds.tolist()

    direct = _tracer("reference", sites)
    _apply(direct, stream)
    expected = direct.snapshot()
    for name in ENGINE_NAMES:
        t = _tracer(name, sites)
        t.replay(trace)
        assert t.snapshot() == expected, name


def test_branch_site_count_matches_across_engines():
    events = [("branch", s, t) for s in _SITES for t in (True, False, True)]
    engines = [cls() for cls in MEMSIM_ENGINES.values()]
    for _, site, taken in events:
        for e in engines:
            e.branch(site, taken)
    assert {e.n_branch_sites() for e in engines} == {len(_SITES)}


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_multiline_and_page_crossing_reads(engine):
    """Deterministic spot-check: a read spanning lines and pages."""
    t = _tracer(engine)
    t.read(4096 - 32, 64)  # crosses a line AND a page boundary
    c = t.counters
    assert c.reads == 1
    assert c.l1_hits + c.l2_hits + c.l3_hits + c.llc_misses == 3  # walk + 2
    assert c.tlb_misses == 1  # only the first page is translated


# --------------------------------------------------------------------
# scan: one event, defined by its expansion.
# --------------------------------------------------------------------


def _expanded(events):
    """The same stream with every scan replaced by its expansion."""
    out = []
    for ev in events:
        if ev[0] != "scan":
            out.append(ev)
            continue
        _, base, offset, size, count, step, site, last = ev
        for i in range(count):
            out.append(("instr", step))
            out.append(("read", base, offset + i * size, size))
            out.append(("branch", site, last if i == count - 1 else False))
    return out


@given(_events())
@settings(max_examples=80, deadline=None)
def test_scan_equals_its_expansion(events):
    """Fast ``scan`` == reference ``scan`` == the spelled-out events."""
    expected = _drive(PerfTracer(engine=ReferenceEngine()), _expanded(events))
    assert _drive(PerfTracer(engine=ReferenceEngine()), events) == expected
    assert _drive(PerfTracer(), events) == expected


@given(_events())
@settings(max_examples=40, deadline=None)
def test_scan_equals_its_expansion_under_tiny_geometry(events):
    expected = _drive(_tiny_reference(), _expanded(events))
    assert _drive(PerfTracer(engine=FastEngine(**_TINY_KW)), events) == (
        expected
    )


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize(
    "addr,size,count",
    [
        (4096, 8, 0),  # empty run: no events at all
        (4096, 8, 1),
        (4096 - 24, 8, 600),  # aligned, crosses a page
        (4096 - 21, 8, 600),  # misaligned: every 8th element straddles
        (100, 24, 300),  # size that does not divide a line
        (0, 64, 70),  # one whole line per element, crosses a page
    ],
)
@pytest.mark.parametrize("last_taken", [False, True])
def test_scan_spot_checks(engine, addr, size, count, last_taken):
    by_event = _tracer(engine)
    by_event.scan(addr, size, count, 3, "loop", last_taken)
    by_hand = _tracer(engine)
    expand_scan(
        by_hand.read, by_hand.instr, by_hand.branch,
        addr, size, count, 3, "loop", last_taken,
    )
    assert by_event.snapshot() == by_hand.snapshot()
    c = by_event.snapshot()
    assert (c.reads, c.branches) == (count, count)
    # A probe of every touched line afterwards sees identical state.
    for t in (by_event, by_hand):
        for a in range(addr, addr + max(count, 1) * size, 64):
            t.read(a, 1)
        t.branch("loop", True)
    assert by_event.snapshot() == by_hand.snapshot()


# --------------------------------------------------------------------
# Dirty-set flush: a flushed engine is a fresh engine.
# --------------------------------------------------------------------


def _deltas(snaps):
    return [s - snaps[0] for s in snaps]


@given(_events(), _events())
@settings(max_examples=60, deadline=None)
def test_flushed_engine_behaves_like_fresh(prefix, events):
    """Caches and TLB after ``flush_caches`` equal a fresh engine's.

    The branch predictor is deliberately not flushed, so the warming
    prefix uses memory events only; the stream after the flush is
    unrestricted (flushes included).
    """
    warmup = [e for e in prefix if e[0] in ("read", "instr")]
    for kw in ({}, _TINY_KW):
        flushed = PerfTracer(engine=FastEngine(**kw))
        _apply(flushed, warmup)
        flushed.flush_caches()
        fresh = PerfTracer(engine=FastEngine(**kw))
        assert _deltas(_drive(flushed, events)) == _drive(fresh, events)


# --------------------------------------------------------------------
# Recording a linear search records its expansion.
# --------------------------------------------------------------------


def _linear_by_hand(data, key, bound, tracer):
    """The per-element linear scan, spelled out event by event."""
    hi = min(bound.hi, len(data))
    pos = bound.lo
    while pos < hi:
        tracer.instr(_LINEAR_STEP_INSTR)
        stop = data.get(pos, tracer) >= key
        tracer.branch("lastmile.linear", stop)
        if stop:
            return pos
        pos += 1
    return pos


@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=1_200),
    st.lists(
        st.tuples(
            st.integers(-5, 10_005), st.integers(0, 1_300), st.integers(0, 700)
        ),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([1 << 20, (1 << 20) + 4, (1 << 20) + 4096 - 40]),
)
@settings(max_examples=60, deadline=None)
def test_recorder_records_linear_search_as_its_expansion(values, lookups, base):
    data = TracedArray(np.array(sorted(values), dtype=np.int64), base)
    recorded = []
    for search in (linear_search, _linear_by_hand):
        sites = SiteInterner()
        inner = _tracer("fast", sites)
        rec = TraceRecorder(inner, sites)
        positions = [
            search(data, key, SearchBound(lo, lo + width), rec)
            for key, lo, width in lookups
        ]
        trace = rec.finish()
        recorded.append(
            (
                positions,
                trace.kinds.tolist(),
                trace.a.tolist(),
                trace.b.tolist(),
                list(sites.names),
                inner.snapshot(),
            )
        )
    assert recorded[0] == recorded[1]
