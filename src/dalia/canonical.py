"""Canonical JSON encoding and content digests.

Canonical form here means: UTF-8, no insignificant whitespace, single line,
and keys emitted in the order the caller built them (field order is part of
each document's contract, so callers construct dicts in the fixed order and
this module must not re-sort them). Every JSON document and frame the
package reads is decoded by ``strict_loads``.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any


# Built once: ``json.dumps`` with these arguments builds a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def canonical_bytes(obj: Any) -> bytes:
    """Raises ValueError on NaN or an infinity, TypeError on a non-JSON type."""
    return _ENCODER.encode(obj).encode("utf-8")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


_DECODER = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float)


def strict_loads(data: str | bytes) -> Any:
    """Decode strict JSON, the inverse of ``canonical_bytes``; raises ValueError.

    Refuses bytes that are not UTF-8, NaN, Infinity, floats that overflow to
    +-inf, escaped lone surrogates, and nesting beyond the recursion limit.
    """
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    try:
        value = _DECODER.decode(text)
        if "\\u" in text:
            canonical_bytes(value)  # UnicodeEncodeError on a lone surrogate
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc
    return value


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sorted_map(mapping: dict) -> dict:
    """Copy of ``mapping`` with keys in sorted order (for canonical output)."""
    return dict(sorted(mapping.items()))
