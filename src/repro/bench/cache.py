"""Persistent on-disk measurement cache.

Each :class:`~repro.bench.cells.MeasureCell` hashes to a stable content
key (dataset name/size/seed/key-bits, index name, sorted config, workload
parameters, plus a cache schema version); its measurement is stored as
one small JSON file under that key.  Re-runs and interrupted sweeps then
resume instead of recomputing -- the simulator is deterministic, so a
cached record is exactly what a fresh run would produce.

The JSON round-trip is lossless: floats survive ``json`` exactly (it
emits shortest round-trip reprs), and configs are restricted to JSON
scalars by construction.  Bump :data:`CACHE_SCHEMA_VERSION` whenever the
simulator or the measurement schema changes meaning; old entries are then
simply never looked up again (their keys hash differently).
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings

from dataclasses import fields
from typing import Optional

from repro.bench.cells import MeasureCell
from repro.bench.harness import Measurement
from repro.codec import content_hash
from repro.memsim.counters import PerfCounters, PerfCountersF
from repro.obs import metrics as obs_metrics
from repro.obs.phase import profiling_enabled

#: Bump when measurement semantics change (simulator, cost model, or the
#: record layout); this invalidates every previously cached entry.
CACHE_SCHEMA_VERSION = 1

#: Default cache location (CLI), overridable via ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = os.path.join(".repro_cache", "measurements")

_COUNTER_NAMES = tuple(f.name for f in fields(PerfCountersF))


#: Corrupt-entry counters already warned about in this process.
_warned_corrupt: set = set()


def _load_entry(path: str, field: str, counter: str):
    """``entry[field]`` of the JSON record at ``path``; None if absent.

    An entry that exists but cannot be read or parsed (a truncated
    write, a foreign file under the key) is also a miss -- the caller
    recomputes and overwrites it -- but it is counted under ``counter``
    and warned about once per process, so silent corruption shows up.
    """
    try:
        with open(path) as f:
            return json.load(f)[field]
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        obs_metrics.get_registry().counter(counter).inc()
        if counter not in _warned_corrupt:
            _warned_corrupt.add(counter)
            warnings.warn(
                f"ignoring corrupt cache entry {path} ({exc!r}) and "
                f"recomputing it; corrupt entries are counted in "
                f"{counter}, and this warning is shown once per process",
                RuntimeWarning,
                stacklevel=3,
            )
        return None


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def cache_key(cell: MeasureCell, schema_version: Optional[int] = None) -> str:
    """Stable content hash of a cell's identity fields.

    Insensitive to config dict ordering (cells freeze configs sorted) and
    to Python hash randomization; sensitive to every field that changes
    what gets measured, and to the schema version.
    """
    if schema_version is None:
        schema_version = CACHE_SCHEMA_VERSION
    return content_hash({"schema": schema_version, "cell": cell.key_fields()})


def scenario_key(spec, schema_version: Optional[int] = None) -> str:
    """Stable content hash for a scenario-spec replay.

    Combines the measurement schema version with the spec's canonical
    JSON form (:meth:`~repro.serve.scenario.ScenarioSpec.to_dict`, which
    embeds its own scenario schema version).  Together with the content
    keys of the measurement cells a replay consumes, this identifies a
    scenario run completely: the simulators are deterministic, so (this
    key, cell keys) -> identical tables, which is what lets scenario
    results flow through the same cache-and-replay discipline as every
    measurement (``ext_tenants`` pins the reproducibility end to end).
    """
    if schema_version is None:
        schema_version = CACHE_SCHEMA_VERSION
    return content_hash({"schema": schema_version, "scenario": spec.to_dict()})


def measurement_to_record(m: Measurement) -> dict:
    """Full, lossless JSON form of a measurement (unlike ``export``'s
    flattened rows, this keeps every field needed to reconstruct)."""
    record = {
        "index": m.index,
        "dataset": m.dataset,
        "config": m.config,
        "n_keys": m.n_keys,
        "size_bytes": m.size_bytes,
        "build_seconds": m.build_seconds,
        "counters": {name: getattr(m.counters, name) for name in _COUNTER_NAMES},
        "latency_ns": m.latency_ns,
        "fence_latency_ns": m.fence_latency_ns,
        "avg_log2_bound": m.avg_log2_bound,
        "n_lookups": m.n_lookups,
        "warm": m.warm,
        "search": m.search,
        "key_bits": m.key_bits,
    }
    if m.phases is not None:
        record["phases"] = {
            phase: {name: getattr(c, name) for name in _COUNTER_NAMES}
            for phase, c in m.phases.items()
        }
    return record


def measurement_from_record(record: dict) -> Measurement:
    record = dict(record)
    record["counters"] = PerfCountersF(**record["counters"])
    phases = record.get("phases")
    if phases is not None:
        record["phases"] = {
            phase: PerfCounters(**vals) for phase, vals in phases.items()
        }
    return Measurement(**record)


def sim_key(task, schema_version: Optional[int] = None) -> str:
    """Stable content hash of a simulation task's identity fields.

    ``task`` is any object with a ``key_fields() -> dict`` of JSON
    scalars (the :mod:`repro.serve.sweep` task dataclasses).  Like
    :func:`cache_key`, the hash canonicalizes ordering and embeds the
    schema version.  Whether a run took the Lindley kernel or the event
    loop is deliberately NOT part of any task's key fields: both paths
    are byte-identical, so one cached record serves either.
    """
    if schema_version is None:
        schema_version = CACHE_SCHEMA_VERSION
    return content_hash({"schema": schema_version, "sim": task.key_fields()})


class _EntryDirectory:
    """A directory of ``<content-key>.json`` cache entries.

    Writes are atomic (temp file + ``os.replace``), so concurrent runs
    sharing a directory at worst redo an entry, never corrupt one.
    Subclasses own the key and the ``get``/``put`` record layout.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def _write(self, path: str, entry: dict) -> None:
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(entry, f, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        return sum(
            1
            for n in names
            if n.endswith(".json") and not n.startswith(".tmp-")
        )

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


class MeasurementCache(_EntryDirectory):
    """Directory of ``<content-key>.json`` measurement records."""

    def _path(self, cell: MeasureCell) -> str:
        return os.path.join(self.directory, cache_key(cell) + ".json")

    def get(self, cell: MeasureCell) -> Optional[Measurement]:
        record = _load_entry(
            self._path(cell), "measurement", "bench.cache.corrupt"
        )
        if record is None:
            self.misses += 1
            return None
        if profiling_enabled() and "phases" not in record:
            # The caller wants phase attribution but this record predates
            # it (or was produced unprofiled): re-execute.  The refreshed
            # record overwrites this one, counters byte-identical.
            self.misses += 1
            return None
        self.hits += 1
        return measurement_from_record(record)

    def put(self, cell: MeasureCell, measurement: Measurement) -> None:
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "cell": cell.key_fields(),
            "measurement": measurement_to_record(measurement),
        }
        self._write(self._path(cell), entry)


class SimResultCache(_EntryDirectory):
    """Directory of ``<sim-key>.json`` simulation-result records.

    The serving analogue of :class:`MeasurementCache`: each
    :mod:`repro.serve.sweep` task stores its (JSON-able) result record
    under the task's :func:`sim_key`.  Lives in its own subdirectory
    (conventionally ``<cache_dir>/serving/``) so measurement-cache
    bookkeeping (``MeasurementCache.__len__``) is unaffected.
    """

    def _path(self, task) -> str:
        return os.path.join(self.directory, sim_key(task) + ".json")

    def get(self, task) -> Optional[dict]:
        result = _load_entry(
            self._path(task), "result", "serve.sweep.cache.corrupt"
        )
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, task, result: dict) -> None:
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "sim": task.key_fields(),
            "result": result,
        }
        self._write(self._path(task), entry)
