"""Instrumented "last mile" search within a search bound.

Given a valid :class:`~repro.core.bounds.SearchBound` for a lookup key,
these functions locate the exact lower-bound position, charging the tracer
for every comparison, branch and memory read.  They operate on the
:class:`~repro.memsim.TracedArray` holding the sorted keys.

All three return the same position; they differ only in access pattern and
cost, which is exactly what Figure 11 of the paper studies.
"""

from __future__ import annotations

from repro.core.bounds import SearchBound
from repro.memsim.memory import TracedArray
from repro.memsim.tracer import NULL_TRACER, Tracer

# Instruction charges per step (beyond the loads/branches charged
# explicitly): index arithmetic, comparisons feeding the branch, and loop
# bookkeeping.  Values are rough Cascade Lake estimates; the cost model's
# conclusions are insensitive to +-50% changes here (see the cost-model
# ablation bench).
_BINARY_STEP_INSTR = 5
_LINEAR_STEP_INSTR = 3
_INTERP_STEP_INSTR = 12  # division + multiplications + clamps


def binary_search(
    data: TracedArray,
    key: int,
    bound: SearchBound,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """Classic lower-bound binary search restricted to ``bound``."""
    lo = bound.lo
    hi = min(bound.hi, len(data))
    while lo < hi:
        mid = (lo + hi) // 2
        tracer.instr(_BINARY_STEP_INSTR)
        goes_right = data.get(mid, tracer) < key
        tracer.branch("lastmile.binary", goes_right)
        if goes_right:
            lo = mid + 1
        else:
            hi = mid
    return lo


def linear_search(
    data: TracedArray,
    key: int,
    bound: SearchBound,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """Forward scan from ``bound.lo`` until a key >= the lookup key.

    Each step costs ``instr``, the element's load and the loop-exit
    branch (taken only at the stop).  The stop position is found
    untraced, then the whole run is charged as one ``tracer.scan``
    event, which is defined as exactly that per-step expansion.
    """
    lo = bound.lo
    hi = min(bound.hi, len(data))
    pos = data.first_at_least(key, lo, hi)
    stop = pos < hi
    tracer.scan(
        data.addr(lo),
        data.itemsize,
        pos - lo + 1 if stop else hi - lo,  # <= 0 for an empty bound
        _LINEAR_STEP_INSTR,
        "lastmile.linear",
        stop,
    )
    return pos


def interpolation_search(
    data: TracedArray,
    key: int,
    bound: SearchBound,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """Interpolation search with a binary-search fallback.

    Assumes keys are roughly uniform within the bound; each probe is placed
    proportionally between the bound's endpoint keys.  When the range stops
    shrinking fast (or endpoint keys are equal) it falls back to binary
    search, guaranteeing termination and correctness on any input.
    """
    n = len(data)
    lo = bound.lo
    hi = min(bound.hi, n)
    if lo >= hi:
        return lo
    # Interpolate on the closed range [lo, hi - 1].
    right = hi - 1
    for _ in range(8):  # bounded number of interpolation probes
        if right - lo < 16:
            break
        lo_key = data.get(lo, tracer)
        right_key = data.get(right, tracer)
        tracer.instr(_INTERP_STEP_INSTR)
        if key <= lo_key:
            tracer.branch("lastmile.interp.edge", True)
            return lo
        if key > right_key:
            tracer.branch("lastmile.interp.edge", True)
            return right + 1
        tracer.branch("lastmile.interp.edge", False)
        span = right_key - lo_key
        if span <= 0:
            break
        probe = lo + int((key - lo_key) * (right - lo) / span)
        probe = min(max(probe, lo + 1), right - 1)
        goes_right = data.get(probe, tracer) < key
        tracer.branch("lastmile.interp", goes_right)
        if goes_right:
            lo = probe + 1
        else:
            right = probe
    return binary_search(data, key, SearchBound(lo, right + 1), tracer)


def exponential_search(
    data: TracedArray,
    key: int,
    bound: SearchBound,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """Exponential (galloping) search from the bound's midpoint.

    The paper suggests integrating exponential search as future work,
    noting "it is not immediately clear how to integrate a search bound"
    (Section 4.2.3).  This integration gallops outward from the center of
    the bound -- the index's best position estimate -- doubling the step
    until the key is straddled, then finishes with binary search.  Cost is
    logarithmic in the *actual* prediction error rather than in the bound
    width, so it wins when bounds are conservative.
    """
    n = len(data)
    lo = bound.lo
    hi = min(bound.hi, n)
    if lo >= hi:
        return lo
    mid = (lo + hi) // 2
    tracer.instr(3)
    if data.get(mid, tracer) < key:
        # Gallop right: find the first probe with key >= lookup key.
        step = 1
        prev = mid + 1
        while prev < hi:
            probe = min(prev + step - 1, hi - 1)
            tracer.instr(4)
            goes_on = data.get(probe, tracer) < key
            tracer.branch("lastmile.expo", goes_on)
            if not goes_on:
                return binary_search(data, key, SearchBound(prev, probe + 1), tracer)
            prev = probe + 1
            step *= 2
        return binary_search(data, key, SearchBound(prev, hi), tracer)
    # Gallop left: find the last probe with key < lookup key.
    step = 1
    prev = mid
    while prev > lo:
        probe = max(prev - step, lo)
        tracer.instr(4)
        goes_on = data.get(probe, tracer) >= key
        tracer.branch("lastmile.expo", goes_on)
        if not goes_on:
            return binary_search(data, key, SearchBound(probe + 1, prev + 1), tracer)
        prev = probe
        step *= 2
    return binary_search(data, key, SearchBound(lo, min(prev + 1, hi)), tracer)


_SIP_FIRST_INSTR = 20  # slope division + fma + clamps
_SIP_STEP_INSTR = 5  # slope-reuse fma + clamp (no division)


def sip_search(
    data: TracedArray,
    key: int,
    bound: SearchBound,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """Slope-reuse interpolation search (SIP, Van Sandt et al.).

    The paper mentions SIP as a candidate last-mile technique whose
    "precomputation steps vary depending on the search bound used"
    (Section 4.2.3).  This integration computes the slope once from the
    bound's endpoint keys, then takes division-free slope-reuse steps
    (one fused multiply-add each); a bracketing invariant guarantees
    correctness, with a binary-search finish after a fixed step budget.
    """
    n = len(data)
    lo = bound.lo
    hi = min(bound.hi, n)
    if hi - lo < 16:
        return binary_search(data, key, SearchBound(lo, bound.hi), tracer)

    k_lo = data.get(lo, tracer)
    k_hi = data.get(hi - 1, tracer)
    tracer.instr(_SIP_FIRST_INSTR)
    if key <= k_lo:
        tracer.branch("lastmile.sip.edge", True)
        return lo
    if key > k_hi:
        tracer.branch("lastmile.sip.edge", True)
        return hi
    tracer.branch("lastmile.sip.edge", False)
    span = k_hi - k_lo
    if span <= 0:
        return binary_search(data, key, SearchBound(lo, hi), tracer)
    slope = (hi - 1 - lo) / span

    # Bracket invariant: LB(key) in [b_lo, b_hi].
    b_lo, b_hi = lo + 1, hi - 1
    pos = lo + int((key - k_lo) * slope)
    for _ in range(4):
        if b_hi - b_lo < 8:
            break
        pos = min(max(pos, b_lo), b_hi - 1)
        probe_key = data.get(pos, tracer)
        tracer.instr(_SIP_STEP_INSTR)
        goes_right = probe_key < key
        tracer.branch("lastmile.sip", goes_right)
        if goes_right:
            b_lo = pos + 1
        else:
            b_hi = pos
        # Slope reuse: one FMA, no division.
        pos = pos + int((key - probe_key) * slope)
    return binary_search(data, key, SearchBound(b_lo, b_hi + 1), tracer)


#: Name -> function mapping used by the harness and Figure 11.
SEARCH_FUNCTIONS = {
    "binary": binary_search,
    "linear": linear_search,
    "interpolation": interpolation_search,
    "exponential": exponential_search,
    "sip": sip_search,
}
