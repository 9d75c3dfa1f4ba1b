"""Bit-exact JSON codec for snapshot payloads.

Snapshot payloads are pure data (protocol contract), but JSON alone
cannot carry them faithfully: tuples collapse to lists, dict keys
collapse to strings, ``±inf`` is not valid strict JSON, and float64
arrays must survive without a decimal round trip. Each lossy shape gets
a sentinel object:

* tuple               -> ``{"__t__": [...]}``
* dict                -> ``{"__d__": [[key, value], ...]}`` — *every*
  dict, so non-string keys and insertion order (which drives RIT
  eviction and ``Counter.most_common`` tie-breaks) survive exactly.
* int -> int dict     -> ``{"__di__": base64(int64 keys ++ values)}`` —
  the same, packed, when every key and value is a non-bool ``int`` in
  int64 range (RIT maps: encoded and parsed at C speed instead of pair
  by pair).
* list of int tuples  -> ``{"__ti__": width, "b64": base64(int64
  items)}`` — the same, for a non-empty list of equal-length, non-empty
  tuples whose items are all non-bool ``int`` in int64 range (the RIT
  entries ``(row, physical, window)``: the bulk of a payload).
* numpy array         -> ``{"__nd__": dtype, "shape": [...], "b64":
  base64(tobytes)}`` — byte-exact, no text round trip.
* non-finite float    -> ``{"__f__": "inf" | "-inf" | "nan"}``

Finite floats ride as native JSON numbers: Python serializes them with
``repr``, the shortest string that round-trips to the same IEEE double.
Sets and deques are rejected — the owning class must convert them to
ordered plain data in ``snapshot_state`` (see
:mod:`repro.state.protocol`).
"""

from __future__ import annotations

import base64
import math
from itertools import chain
from typing import Any, Optional

import numpy as np


# Element types a list may carry as-is: each encodes (and decodes) to
# itself. Floats only on the way back in — JSON never yields a
# non-finite one, but encoding must check for them.
_PLAIN_OUT = frozenset({int, str, bool, type(None)})
_PLAIN_IN = _PLAIN_OUT | {float}

# Little-endian int64, fixed so checkpoints move between hosts.
_INT64 = np.dtype("<i8")


def _pack_ints(flat: list) -> Optional[str]:
    """``flat`` packed as int64; None unless every item is an int64 int.

    ``type(x) is int`` excludes ``bool`` and numpy scalars, and numpy
    refuses ints beyond int64, so only exact int64 data is packed.
    """
    if flat and set(map(type, flat)) != {int}:
        return None
    try:
        packed = np.array(flat, dtype=_INT64)
    except OverflowError:
        return None
    return base64.b64encode(packed.tobytes()).decode("ascii")


def _pack_int_dict(value: dict) -> Optional[str]:
    """Keys then values of an all-int64 dict, packed; None if it is not one."""
    return _pack_ints([*value, *value.values()])


def _pack_int_tuples(value: list) -> Optional[dict]:
    """A list of tuples (``value``'s items) that share one non-zero
    length, items packed in order; None if it is not one."""
    widths = set(map(len, value))
    if len(widths) != 1 or 0 in widths:
        return None
    packed = _pack_ints(list(chain.from_iterable(value)))
    if packed is None:
        return None
    return {"__ti__": widths.pop(), "b64": packed}


def encode_state(value: Any) -> Any:
    """Encode one snapshot payload into strict-JSON-safe data."""
    if value is None or isinstance(value, (bool, int, str)):
        if isinstance(value, (np.integer, np.bool_)):
            return value.item()
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return {"__f__": "nan"}
        return {"__f__": "inf" if value > 0 else "-inf"}
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.floating):
        return encode_state(float(value))
    if isinstance(value, tuple):
        return {"__t__": [encode_state(item) for item in value]}
    if isinstance(value, list):
        types = set(map(type, value))
        if types <= _PLAIN_OUT:
            return list(value)
        if types == {tuple}:
            packed = _pack_int_tuples(value)
            if packed is not None:
                return packed
        return [encode_state(item) for item in value]
    if type(value) is dict:
        # Strict type check: dict *subclasses* (Counter, defaultdict,
        # OrderedDict) would silently decay to plain dicts on decode —
        # the owning class must convert them to ordered plain data.
        packed = _pack_int_dict(value)
        if packed is not None:
            return {"__di__": packed}
        return {
            "__d__": [
                [encode_state(k), encode_state(v)] for k, v in value.items()
            ]
        }
    if isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        return {
            "__nd__": contiguous.dtype.str,
            "shape": list(contiguous.shape),
            "b64": base64.b64encode(contiguous.tobytes()).decode("ascii"),
        }
    raise TypeError(
        f"snapshot payloads must be pure data; {type(value).__name__} "
        "must be converted by the owning class's snapshot_state()"
    )


def decode_state(value: Any) -> Any:
    """Exact inverse of :func:`encode_state`."""
    if isinstance(value, list):
        if set(map(type, value)) <= _PLAIN_IN:
            return value
        return [decode_state(item) for item in value]
    if isinstance(value, dict):
        if "__t__" in value:
            return tuple(decode_state(item) for item in value["__t__"])
        if "__di__" in value:
            flat = np.frombuffer(base64.b64decode(value["__di__"]), _INT64)
            half = len(flat) // 2
            return dict(zip(flat[:half].tolist(), flat[half:].tolist()))
        if "__ti__" in value:
            flat = np.frombuffer(base64.b64decode(value["b64"]), _INT64)
            return list(map(tuple, flat.reshape(-1, value["__ti__"]).tolist()))
        if "__d__" in value:
            return {
                decode_state(k): decode_state(v) for k, v in value["__d__"]
            }
        if "__nd__" in value:
            raw = base64.b64decode(value["b64"])
            array = np.frombuffer(raw, dtype=np.dtype(value["__nd__"]))
            return array.reshape(value["shape"]).copy()
        if "__f__" in value:
            return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}[
                value["__f__"]
            ]
        raise ValueError(f"unknown state sentinel in {sorted(value)!r}")
    return value
