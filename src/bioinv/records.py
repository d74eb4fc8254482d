"""JSON form of the data records: an instance and its sections, an
allocation, a demand scenario, demand means and an uncertainty set.

A record is written as the fields that are set, in field order, with arrays
as lists.  It is read back by field name: an unknown field, or a missing one
that the dataclass gives no default, raises the caller's own error type, and
so do a file that is not JSON and an array that is not numbers.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, fields, is_dataclass

import numpy as np


def record_to_dict(rec) -> dict:
    """The fields of `rec` that are set, in field order; arrays (also inside
    dicts, tuples and nested records) become lists, and a nested record with
    nothing set is left out."""
    items = ((f.name, _plain(getattr(rec, f.name))) for f in fields(rec))
    return {name: v for name, v in items if v is not None and v != {}}


def _plain(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if is_dataclass(v):
        return record_to_dict(v)
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v


def read_json(path: str, error):
    """The JSON document in file `path`; a parse error raises `error`, naming
    the path and the line."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from None


def numbers(name: str, val, error) -> np.ndarray:
    """`val` as a float array; `error` naming `name` when it holds anything
    but numbers or is ragged."""
    try:
        return np.asarray(val, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{name}: expected numbers ({exc})") from None


@functools.cache
def field_names(cls) -> tuple[tuple, tuple]:
    """The field names of dataclass `cls`, and those it gives no default."""
    fs = fields(cls)
    return (tuple(f.name for f in fs),
            tuple(f.name for f in fs if f.default is MISSING and f.default_factory is MISSING))


def check_keys(d, known, required, error, where: str) -> dict:
    """`d` itself, once it is an object whose keys are all `known` and
    include every `required` one; raises `error` otherwise."""
    if not isinstance(d, dict):
        raise error(f"{where}: expected an object, got {type(d).__name__}")
    unknown = d.keys() - known
    if unknown:
        raise error(f"{where}: unknown fields {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise error(f"{where}: missing fields {missing}")
    return d


def record_from_dict(cls, d, error, where: str | None = None, invalid=None):
    """`cls(**d)` for an object naming only fields of `cls`, and each one without a
    default; an `invalid` (else `error`) of `cls`'s own checks is raised naming `where`."""
    d = check_keys(d, *field_names(cls), error, where := where or cls.__name__)
    try:
        return cls(**d)
    except invalid or error as exc:
        raise type(exc)(f"{where}: {exc}") from None
