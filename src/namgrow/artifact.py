"""The JSON container that checkpoints and cluster caches share.

A document is one JSON object, written without spaces and with its keys in
the order its writer builds them, so the same content gives the same
bytes.  Each array in it is a record

    {"dtype": "<f8", "shape": [...], "base64": "..."}

of the array's C-order little-endian float64 bytes.  Encoding bytes is a
small fraction of the work of writing each float's shortest repr and takes
about half the space, and it round-trips every bit.  `read` checks a
record's dtype, shape and decoded byte length before it builds the array,
and refuses an array that is not all finite.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

DTYPE = "<f8"


def dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True)


def loads(text: str, name: str) -> dict:
    """Parse a document; anything but a JSON object of format `name` is a
    ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != name:
        raise ValueError(f"not a {name} document")
    return doc


def write(values) -> dict:
    """The array record of `values`."""
    a = np.ascontiguousarray(values, dtype=DTYPE)
    return {"dtype": DTYPE, "shape": list(a.shape),
            "base64": base64.b64encode(a).decode("ascii")}


def _is_size(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def read(record, name: str) -> np.ndarray:
    """The writable float64 array of an array record; a malformed record or
    a non-finite value is a ValueError that begins with `name`."""
    if not isinstance(record, dict):
        raise ValueError(f"{name} is not an array record")
    for key in ("dtype", "shape", "base64"):
        if key not in record:
            raise ValueError(f"{name} has no {key!r} key")
    if record["dtype"] != DTYPE:
        raise ValueError(f"{name} dtype {record['dtype']!r} is not {DTYPE!r}")
    shape = record["shape"]
    if not (isinstance(shape, list) and all(map(_is_size, shape))):
        raise ValueError(f"{name} shape {shape!r} is not a list of sizes")
    try:
        raw = base64.b64decode(record["base64"], validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not valid base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{name} holds {len(raw)} bytes, shape {shape} "
                         f"needs {8 * math.prod(shape)}")
    values = np.frombuffer(bytearray(raw), dtype=DTYPE).reshape(shape)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} is not all finite")
    return values
