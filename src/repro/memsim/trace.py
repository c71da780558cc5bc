"""Trace record-replay: capture one lookup's event stream, re-run it cheaply.

A measured lookup is a sequence of ``read``/``instr``/``branch`` calls
into the tracer.  All three return ``None``, so index code cannot
observe simulator state -- the event stream for a given (index, key,
search function) is a pure function of the index contents, independent
of cache/TLB/predictor state.  That makes replay sound: re-running a
recorded stream through an engine produces byte-identical counters to
re-executing the index Python, without paying for the index Python.

Repeated-execution experiments exploit this: ``measure_repeated`` runs
overlapping warmup windows over the same keys, fig14-style cold-cache
passes re-run the exact warm-pass keys with flushes in between, and
serving calibration replays per-request service lookups.  The harness
keeps a :class:`TraceStore` on each ``BuiltIndex`` keyed by
``(search, key)`` and replays on hit (``bench/harness.py``).

Events are stored as three parallel typed arrays (kind: uint8;
two int64 operands), compact enough to keep thousands of lookup traces
resident; :meth:`Trace.lists` materializes plain-int lists once for the
engines' batch loops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.memsim.cache import LINE_SIZE
from repro.memsim.engine import SiteInterner
from repro.memsim.tlb import PAGE_SHIFT
from repro.memsim.tracer import NULL_TRACER, Tracer

# The recorder's repeat-detection shifts (>> 6, >> 12) assume these
# geometry constants, exactly like the fast engine does.
assert LINE_SIZE == 1 << 6 and PAGE_SHIFT == 12

#: Event kinds in a :class:`Trace` (the ``kinds`` array).
K_READ, K_INSTR, K_BRANCH, K_REPEAT = 0, 1, 2, 3


class Trace:
    """One recorded event stream as parallel typed arrays.

    ``kinds[i]`` selects the event; ``a[i]``/``b[i]`` are its operands:
    read -> (addr, size); instr -> (n, 0); branch -> (site id, taken);
    repeat -> (addr, count).  Site ids resolve through the
    :class:`SiteInterner` the recorder was given -- replaying engines
    must share it.

    A *repeat* event stands for ``count`` single-line reads of a line
    the recorder proved were pure L1 hits (see
    :meth:`TraceRecorder.read`); engines may replay it as three counter
    increments per read with zero state changes, or literally as
    ``count`` one-byte reads of ``addr`` -- both are exact.
    """

    __slots__ = ("kinds", "a", "b", "_lists")

    def __init__(self, kinds, a, b):
        self.kinds = np.asarray(kinds, dtype=np.uint8)
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        self._lists: Optional[Tuple[list, list, list]] = None

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def nbytes(self) -> int:
        return self.kinds.nbytes + self.a.nbytes + self.b.nbytes

    def lists(self) -> Tuple[list, list, list]:
        """(kinds, a, b) as plain-int lists, materialized once."""
        if self._lists is None:
            self._lists = (
                self.kinds.tolist(),
                self.a.tolist(),
                self.b.tolist(),
            )
        return self._lists

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Trace({len(self)} events, {self.nbytes} bytes)"


class TraceRecorder(Tracer):
    """Tee tracer: forwards every event to ``inner`` while recording it.

    Wrap the measuring tracer during a lookup's first execution, then
    :meth:`finish` yields the :class:`Trace`; later executions replay it
    through any engine instead of re-walking the index code.

    The recorder run-length-compresses repeated same-line reads into
    ``K_REPEAT`` events.  A read qualifies when it touches exactly the
    single line the previous read left MRU in L1, on the page the
    previous read left MRU in the TLB -- a purely address-based test, so
    the guarantee holds for any engine state at replay time: each such
    read is exactly ``reads+1, instructions+1, l1_hits+1`` and changes
    no simulator state.  (Interleaved ``instr``/``branch`` events touch
    neither caches nor TLB, so repeats merge across them; counter sums
    and final state are unaffected by the reordering.)
    """

    __slots__ = ("inner", "sites", "_k", "_a", "_b", "_ultra_line", "_rep")

    def __init__(
        self, inner: Tracer = NULL_TRACER, sites: Optional[SiteInterner] = None
    ):
        self.inner = inner
        self.sites = sites if sites is not None else SiteInterner()
        self._k: List[int] = []
        self._a: List[int] = []
        self._b: List[int] = []
        self._ultra_line = -1  # line a repeat read would qualify against
        self._rep = -1  # index of the open K_REPEAT event, or -1

    def read(self, addr: int, size: int = 8) -> None:
        line = addr >> 6
        if line == self._ultra_line and (addr + size - 1) >> 6 == line:
            i = self._rep
            if i >= 0:
                self._b[i] += 1
            else:
                self._rep = len(self._k)
                self._k.append(K_REPEAT)
                self._a.append(addr)
                self._b.append(1)
        else:
            self._k.append(K_READ)
            self._a.append(addr)
            self._b.append(size)
            last = (addr + size - 1) >> 6
            # The page the engine translates is addr's; the line left
            # MRU is `last`.  Only when they coincide is a repeat of
            # `last` provably a pure L1 + TLB hit.
            self._ultra_line = last if last >> 6 == addr >> 12 else -1
            self._rep = -1
        self.inner.read(addr, size)

    def instr(self, n: int = 1) -> None:
        self._k.append(K_INSTR)
        self._a.append(n)
        self._b.append(0)
        self.inner.instr(n)

    def branch(self, site: str, taken: bool) -> None:
        self._k.append(K_BRANCH)
        self._a.append(self.sites.intern(site))
        self._b.append(1 if taken else 0)
        self.inner.branch(site, taken)

    def __len__(self) -> int:
        return len(self._k)

    def finish(self) -> Trace:
        return Trace(self._k, self._a, self._b)


class TraceStore:
    """Keyed trace cache with a shared interner and an event budget.

    The budget caps resident trace memory (~17 bytes/event).  Two
    full-budget policies, both of which keep ``events <= max_events`` at
    all times:

    * ``evict=False`` (default): :meth:`put` declines and the harness
      simply keeps executing those lookups directly -- replay is an
      optimization, never a requirement.
    * ``evict=True``: :meth:`put` deterministically evicts the oldest
      resident traces (FIFO in insertion order) until the newcomer fits.
      A trace larger than the whole budget is still declined -- eviction
      never helps it fit, so emptying the store for it would be pure
      loss.
    """

    #: ~4M events is ~70 MB of typed arrays -- far beyond any default
    #: grid cell (a 1000-lookup measurement records ~20k events).
    DEFAULT_MAX_EVENTS = 4_000_000

    __slots__ = (
        "sites",
        "max_events",
        "evict",
        "events",
        "hits",
        "misses",
        "rejects",
        "evictions",
        "_traces",
    )

    def __init__(
        self,
        sites: Optional[SiteInterner] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        evict: bool = False,
    ):
        self.sites = sites if sites is not None else SiteInterner()
        self.max_events = max_events
        self.evict = evict
        self.events = 0
        self.hits = 0
        self.misses = 0
        #: Traces declined by :meth:`put` because the budget was full.
        self.rejects = 0
        #: Traces evicted to make room (``evict=True`` only).
        self.evictions = 0
        self._traces: Dict[object, Tuple[Trace, object]] = {}

    def get(self, key) -> Optional[Tuple[Trace, object]]:
        entry = self._traces.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key, trace: Trace, meta=None) -> bool:
        """Store a trace; False (and drop it) if it cannot be admitted."""
        if key in self._traces:
            return True
        if self.events + len(trace) > self.max_events:
            if not self.evict or len(trace) > self.max_events:
                self.rejects += 1
                return False
            # Dicts iterate in insertion order, so dropping from the
            # front is FIFO -- fully determined by the put sequence.
            while self.events + len(trace) > self.max_events:
                old_key = next(iter(self._traces))
                old_trace, _ = self._traces.pop(old_key)
                self.events -= len(old_trace)
                self.evictions += 1
        self._traces[key] = (trace, meta)
        self.events += len(trace)
        return True

    def __len__(self) -> int:
        return len(self._traces)
