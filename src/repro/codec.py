"""One codec for the specs, sweep tasks and result records.

Everything the caches key on or store -- scenario and reconfiguration
specs, simulation tasks, run records, telemetry series -- is a
dataclass whose JSON form follows from its fields:

* :func:`encode` walks the fields in declaration order.  Nested
  dataclasses become objects, tuples and lists become lists, and a
  ``Tuple[Tuple[str, X], ...]`` of ``(name, value)`` pairs becomes an
  object (canonical JSON sorts its keys, so types keep such pairs
  sorted by name).  Pair values and the items of fixed-length tuples
  are scalars.  Values are emitted as stored, never coerced.
* :func:`decode` coerces each JSON value by its field's resolved
  annotation (``int``, ``float``, ``str``, ``bool``, ``Optional``,
  ``Tuple[X, ...]``, pairs, nested dataclasses; anything else passes
  through).  A missing key takes the field's default, unknown keys are
  ignored, and validation stays in each class's ``__post_init__``.
* A class attribute ``codec_schema`` adds a ``"schema"`` tag to the
  encoding; decoding a missing or different tag raises ``ValueError``.
* A field declared with :func:`omit_default` is left out of the encoding
  while it equals its default, so adding such a field leaves every
  existing encoding -- and every content key -- unchanged.

:func:`canonical_json` is the one canonical form (sorted keys, no
whitespace) and :func:`content_hash` its truncated sha256: content keys,
cache keys and simulation keys are all hashes of canonical JSON.

Each class's field plan is resolved once (annotations included) and
cached, so encoding costs one getattr and at most one small function
call per field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "canonical_json",
    "content_hash",
    "omit_default",
    "encode",
    "decode",
    "Codec",
]

#: ``dataclasses.field`` metadata key of the omit-when-default marker.
_OMIT = "repro.codec.omit_default"


def canonical_json(payload) -> str:
    """Sorted-key, no-whitespace JSON: one byte string per value."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload) -> str:
    """sha256 of the canonical JSON, truncated to 40 hex chars."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()[:40]


def omit_default(
    default=dataclasses.MISSING, default_factory=dataclasses.MISSING
):
    """A dataclass field the encoding leaves out while it equals its
    default."""
    return dataclasses.field(
        default=default,
        default_factory=default_factory,
        metadata={_OMIT: True},
    )


# ---------------------------------------------------------------------------
# per-annotation converters (None = the value passes through unchanged)
# ---------------------------------------------------------------------------

_Convert = Optional[Callable[[Any], Any]]


def _pair_value(tp):
    """X when ``tp`` is ``Tuple[str, X]``, else None."""
    args = typing.get_args(tp)
    if (
        typing.get_origin(tp) is tuple
        and len(args) == 2
        and args[0] is str
        and args[1] is not Ellipsis
    ):
        return args[1]
    return None


def _is_sequence(origin, args) -> bool:
    """``List[X]`` or ``Tuple[X, ...]``."""
    return origin is list or (
        origin is tuple and len(args) == 2 and args[1] is Ellipsis
    )


def _optional_arg(tp):
    """X when ``tp`` is ``Optional[X]``, else None."""
    if typing.get_origin(tp) is typing.Union:
        args = typing.get_args(tp)
        if len(args) == 2 and type(None) in args:
            return args[0] if args[1] is type(None) else args[1]
    return None


def _encoder(tp) -> _Convert:
    if dataclasses.is_dataclass(tp):
        return encode
    inner = _optional_arg(tp)
    if inner is not None:
        enc = _encoder(inner)
        return None if enc is None else lambda v: None if v is None else enc(v)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if _is_sequence(origin, args):
        if _pair_value(args[0]) is not None:
            return dict  # pair values are scalars
        enc = _encoder(args[0])
        return list if enc is None else lambda v: [enc(x) for x in v]
    if origin is tuple:
        return list  # fixed-length tuples hold scalars
    return None


_SCALARS = {int: int, float: float, str: str, bool: bool}


def _decoder(tp) -> _Convert:
    if tp in _SCALARS:
        return _SCALARS[tp]
    if dataclasses.is_dataclass(tp):
        return lambda v: decode(tp, v)
    inner = _optional_arg(tp)
    if inner is not None:
        dec = _decoder(inner)
        return None if dec is None else lambda v: None if v is None else dec(v)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if _is_sequence(origin, args):
        box = tuple if origin is tuple else list
        value_tp = _pair_value(args[0])
        if value_tp is not None:
            dec = _decoder(value_tp)
            if dec is None:
                return lambda v: box(v.items())
            return lambda v: box((k, dec(x)) for k, x in v.items())
        dec = _decoder(args[0])
        return box if dec is None else lambda v: box(dec(x) for x in v)
    if origin is tuple:
        decs = [_decoder(a) for a in args]
        return lambda v: tuple(
            x if d is None else d(x) for d, x in zip(decs, v)
        )
    return None


# ---------------------------------------------------------------------------
# field plans
# ---------------------------------------------------------------------------


class _Field:
    __slots__ = ("name", "encode", "decode", "omit", "default")

    def __init__(self, f: dataclasses.Field, tp):
        self.name = f.name
        self.encode = _encoder(tp)
        self.decode = _decoder(tp)
        self.omit = bool(f.metadata.get(_OMIT))
        self.default = (
            f.default_factory()
            if f.default_factory is not dataclasses.MISSING
            else f.default
        )


_PLANS: Dict[type, Tuple[Optional[int], List[_Field]]] = {}


def _plan(cls: type) -> Tuple[Optional[int], List[_Field]]:
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        plan = _PLANS[cls] = (
            getattr(cls, "codec_schema", None),
            [_Field(f, hints[f.name]) for f in dataclasses.fields(cls)],
        )
    return plan


def encode(obj) -> dict:
    """The JSON-able dict form of a dataclass instance."""
    schema, plan = _plan(type(obj))
    out = {} if schema is None else {"schema": schema}
    for f in plan:
        value = getattr(obj, f.name)
        if f.omit and value == f.default:
            continue
        out[f.name] = value if f.encode is None else f.encode(value)
    return out


def decode(cls, data: dict):
    """Rebuild a ``cls`` instance from its :func:`encode` form."""
    schema, plan = _plan(cls)
    if schema is not None and data.get("schema") != schema:
        raise ValueError(
            f"{cls.__name__} schema {data.get('schema')!r} != {schema}"
        )
    kwargs = {}
    for f in plan:
        if f.name in data:
            value = data[f.name]
            kwargs[f.name] = value if f.decode is None else f.decode(value)
    return cls(**kwargs)


class Codec:
    """Mixin: the dict/JSON/content-key methods of a codec dataclass."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict):
        return decode(cls, data)

    def to_json(self, indent: Optional[int] = None) -> str:
        if indent is None:
            return canonical_json(encode(self))
        return json.dumps(encode(self), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str):
        return decode(cls, json.loads(text))

    def content_key(self) -> str:
        """Stable content hash of the canonical JSON form."""
        return content_hash(encode(self))
