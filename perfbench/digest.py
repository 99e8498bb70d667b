"""Canonical digests of program outputs.

Outputs are reduced to a canonical JSON form and hashed.  Floats are
rounded to :data:`SIGNIFICANT_DIGITS` significant digits, so a digest
pins a result to nine digits without depending on the last bit of a
floating-point reduction.  Any type the canonicaliser does not know is
an error rather than a silently skipped field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

__all__ = ["SIGNIFICANT_DIGITS", "canonical", "digest"]

SIGNIFICANT_DIGITS = 9


def _float(value: float) -> str:
    if not math.isfinite(value):
        return repr(value)
    return format(value, f".{SIGNIFICANT_DIGITS}g")


def canonical(value: object) -> object:
    """A JSON-serialisable, order-independent form of ``value``."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _float(float(value))
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            items: list[object] = [_float(v) for v in value.ravel().tolist()]
        else:
            items = value.ravel().tolist()
        return {"shape": list(value.shape), "values": items}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"type": type(value).__name__,
                **{f.name: canonical(getattr(value, f.name))
                   for f in dataclasses.fields(value)}}
    if isinstance(value, dict):
        pairs = [(json.dumps(canonical(k), sort_keys=True), canonical(v))
                 for k, v in value.items()]
        return [list(pair) for pair in sorted(pairs, key=lambda p: p[0])]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value: object) -> str:
    """16-hex-digit SHA-256 prefix of ``canonical(value)``."""
    text = json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
