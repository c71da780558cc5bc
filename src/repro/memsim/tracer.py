"""Tracer interface: the single instrumentation hook used by all indexes.

Every index's ``lookup`` is written once against this interface.  During
wall-clock benchmarking the no-op :data:`NULL_TRACER` is passed; during
paper-shape experiments a :class:`PerfTracer` (cache hierarchy + branch
predictor + instruction counter) is passed.  There are deliberately no
separate "fast" and "measured" code paths that could diverge.

:class:`PerfTracer` delegates the actual simulation to an engine
(``repro.memsim.engine``): the flat-structure fast engine by default,
or the pure-Python reference engine -- the executable spec the fast
engine is held counter-identical to.  ``read``/``instr``/``branch`` are
bound straight off the engine in ``__init__`` so the hot path pays no
per-event delegation.  ``scan`` is one event defined by its expansion
into those three, so a linear scan still has one lookup code path.
"""

from __future__ import annotations

from typing import Optional

from repro.memsim.branch import BranchPredictor
from repro.memsim.cache import CacheHierarchy
from repro.memsim.counters import PerfCounters
from repro.memsim.engine import (
    FastEngine,
    ReferenceEngine,
    SiteInterner,
    expand_scan,
)
from repro.memsim.tlb import TLB


class Tracer:
    """Abstract instrumentation sink.

    Methods
    -------
    read(addr, size):
        A data-dependent memory read of ``size`` bytes at byte address
        ``addr``.  Reads crossing a cache-line boundary count as two line
        accesses.
    instr(n):
        ``n`` retired arithmetic/logic instructions.
    branch(site, taken):
        A conditional branch at static site ``site`` with outcome ``taken``.
    scan(addr, size, count, step_instr, site, last_taken):
        A run of ``count`` loop steps over consecutive ``size``-byte
        elements from ``addr``, *defined* as its expansion (see
        :func:`~repro.memsim.engine.expand_scan`): per step
        ``instr(step_instr)``, ``read(addr + i*size, size)`` and
        ``branch(site, taken)``, taken only on the final step and only if
        ``last_taken``.  The default implementation runs that expansion;
        engines may compute the same counters faster.
    phase(name):
        Marker: subsequent events belong to lookup phase ``name``
        ("model", "search", ...).  A no-op on every stock tracer; the
        profiling :class:`~repro.obs.phase.PhaseTracer` overrides it to
        attribute counter deltas per phase.  Markers are advisory and
        never recorded into traces, so they cannot change counters.

    The event methods return ``None`` -- lookup code cannot observe
    simulator state, which is what makes recorded event streams
    replayable (``repro.memsim.trace``).
    """

    def read(self, addr: int, size: int = 8) -> None:
        raise NotImplementedError

    def instr(self, n: int = 1) -> None:
        raise NotImplementedError

    def branch(self, site: str, taken: bool) -> None:
        raise NotImplementedError

    def scan(
        self,
        addr: int,
        size: int,
        count: int,
        step_instr: int,
        site: str,
        last_taken: bool,
    ) -> None:
        expand_scan(
            self.read, self.instr, self.branch,
            addr, size, count, step_instr, site, last_taken,
        )

    def phase(self, name: str) -> None:
        pass


class NullTracer(Tracer):
    """No-op tracer for wall-clock runs."""

    __slots__ = ()

    def read(self, addr: int, size: int = 8) -> None:
        pass

    def instr(self, n: int = 1) -> None:
        pass

    def branch(self, site: str, taken: bool) -> None:
        pass

    def scan(
        self,
        addr: int,
        size: int,
        count: int,
        step_instr: int,
        site: str,
        last_taken: bool,
    ) -> None:
        pass


#: Shared no-op tracer instance (stateless, safe to share).
NULL_TRACER = NullTracer()


class PerfTracer(Tracer):
    """Counting tracer backed by a memsim engine.

    ``engine`` may be a prebuilt engine instance; by default a
    :class:`~repro.memsim.engine.FastEngine` is built.  Passing custom
    ``caches``/``predictor``/``tlb`` component objects builds a
    :class:`~repro.memsim.engine.ReferenceEngine` around them instead.

    ``counters``/``caches``/``predictor``/``tlb`` delegate to the
    engine; the fast engine raises ``AttributeError`` for the component
    objects it does not have.
    """

    __slots__ = ("engine", "read", "instr", "branch", "scan")

    def __init__(
        self,
        caches: Optional[CacheHierarchy] = None,
        predictor: Optional[BranchPredictor] = None,
        tlb: Optional[TLB] = None,
        engine=None,
        sites: Optional[SiteInterner] = None,
    ):
        has_components = (
            caches is not None or predictor is not None or tlb is not None
        )
        if engine is not None:
            if has_components:
                raise ValueError(
                    "pass components or a prebuilt engine instance, not both"
                )
            eng = engine
        elif has_components:
            eng = ReferenceEngine(
                caches=caches, predictor=predictor, tlb=tlb, sites=sites
            )
        else:
            eng = FastEngine(sites=sites)
        self.engine = eng
        self.read = eng.read
        self.instr = eng.instr
        self.branch = eng.branch
        self.scan = eng.scan

    @property
    def counters(self) -> PerfCounters:
        return self.engine.counters

    @property
    def caches(self) -> CacheHierarchy:
        return self.engine.caches

    @property
    def predictor(self) -> BranchPredictor:
        return self.engine.predictor

    @property
    def tlb(self) -> TLB:
        return self.engine.tlb

    @property
    def sites(self) -> SiteInterner:
        return self.engine.sites

    def snapshot(self) -> PerfCounters:
        return self.engine.snapshot()

    def flush_caches(self) -> None:
        self.engine.flush_caches()

    def replay(self, trace) -> None:
        """Re-run a recorded event stream (see ``repro.memsim.trace``)."""
        self.engine.replay(trace)
