"""Output digests: what the benchmark checks each operation against.

An operation is a grid cell, an experiment report or a simulation task.
Each gets a short digest of its deterministic output; the run is
correct when every digest equals the one recorded for the same seed in
``reference.json``.  Host-timed output is left out: a measurement's
``build_seconds`` and, in the report text, the lines that differ between
any two runs of the same code (see :func:`report_sections`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re

#: The CLI's per-experiment header: a rule, ``[id] (1.2s)``, a rule.
_HEADER = re.compile(r"^={72}\n\[([^\]\n]+)\] \(\d+\.\ds\)\n={72}\n", re.M)

#: Host-timed tables, by experiment: a table starts at the line holding
#: the marker and runs to the next blank line.
_TIMED_TABLES = {
    "fig17": "keys (s)",
    "ext3": "(kops/s)",
}

_CELL_FIELDS = (
    "dataset", "n_keys", "seed", "key_bits", "index", "config",
    "n_lookups", "warmup", "warm", "search",
)


def _hash(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _jsonable(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def cell_id(cell) -> str:
    """Identity of a grid cell, independent of the program's cache keys."""
    return _hash({name: _jsonable(getattr(cell, name)) for name in _CELL_FIELDS})


def measurement_digest(m) -> str:
    """Every :class:`Measurement` field except the host-timed
    ``build_seconds``."""
    record = {
        f.name: _jsonable(getattr(m, f.name))
        for f in dataclasses.fields(m)
        if f.name != "build_seconds"
    }
    return _hash(record)


def record_digest(record) -> str:
    """A simulation task's JSON result record."""
    return _hash(_jsonable(record))


def report_sections(text: str) -> dict:
    """Split CLI output into ``{experiment id: report text}``.

    The ``[id] (x.xs)`` headers and everything before the first one (the
    ``runner:`` lines) are dropped, as are any other ``runner:`` lines
    and the host-timed tables of :data:`_TIMED_TABLES`.
    """
    heads = list(_HEADER.finditer(text))
    sections = {}
    for i, head in enumerate(heads):
        end = heads[i + 1].start() if i + 1 < len(heads) else len(text)
        body = text[head.end():end]
        sections[head.group(1)] = _strip_timed(head.group(1), body)
    return sections


def _strip_timed(exp_id: str, body: str) -> str:
    marker = _TIMED_TABLES.get(exp_id)
    kept = []
    in_table = False
    for line in body.split("\n"):
        if marker is not None and marker in line:
            in_table = True
        if in_table:
            if not line.strip():
                in_table = False
            continue
        if line.lstrip().startswith("runner:"):
            continue
        kept.append(line)
    return "\n".join(kept)


def report_digests(text: str) -> dict:
    return {k: _hash(v) for k, v in report_sections(text).items()}


def compare(reference: dict, observed: dict):
    """``(attempted, failed)`` for one run.

    Both arguments map a kind (``cells``, ``reports``, ``tasks``) to
    ``{operation id: digest}``.  An operation fails when its digest
    differs from the reference, when it is missing from the run (it
    raised, or the run stopped before it) or when the reference does not
    know it.
    """
    attempted = failed = 0
    for kind in sorted(set(reference) | set(observed)):
        want = reference.get(kind, {})
        got = observed.get(kind, {})
        for op in set(want) | set(got):
            attempted += 1
            if want.get(op) is None or want.get(op) != got.get(op):
                failed += 1
    return attempted, failed
