"""The JSON container that checkpoints and cluster caches share.

A document is one JSON object, written without spaces and with its keys in
the order its writer builds them, so the same content gives the same
bytes.  Each array in it is a record

    {"dtype": "<f8", "shape": [...], "base64": "..."}

of the array's C-order little-endian float64 bytes.  Encoding bytes is a
small fraction of the work of writing each float's shortest repr and takes
about half the space, and it round-trips every bit.  `read` checks a
record's dtype, shape and payload length before it builds the array,
decodes the payload into it a chunk at a time, and refuses an array that is
not all finite.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

DTYPE = "<f8"
# base64 characters decoded at a time (a multiple of 4, so each chunk but
# the last decodes on its own to three bytes per four characters)
_CHUNK = 1 << 18


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


def is_count(value, least: int) -> bool:
    """Whether `value` is an integer of at least `least` (a bool is not)."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least)


def checked(where: str, build, *args):
    """build(*args), with any record error raised as a ValueError that
    begins with `where`."""
    try:
        return build(*args)
    except KeyError as exc:
        raise ValueError(f"{where} has no {exc} key") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def load(path, kind: str, parse, *args):
    """parse(the text of the file at `path`, *args).  A malformed document
    is a ValueError that ends by naming the file as a `kind`; one that
    lacks a key or holds a value of the wrong type says so."""
    named = f"({kind} {path})"
    try:
        return parse(Path(path).read_text(), *args)
    except KeyError as exc:
        raise ValueError(f"{kind} has no {exc} key {named}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed {kind}: {exc} {named}") from exc
    except ValueError as exc:
        raise ValueError(f"{exc} {named}") from exc


def _encodes(text, size: int) -> bool:
    """Whether `text` is a string as long as the base64 of `size` bytes with
    no '=' before its last two characters: if it is valid, it decodes to
    `size` bytes, every chunk but the last without padding."""
    return (isinstance(text, str) and len(text) == 4 * -(-size // 3)
            and text.find("=", 0, len(text) - 2) < 0)


def _decode_into(text: str, out: np.ndarray) -> int:
    """Decode `text` into the uint8 array `out`, _CHUNK characters at a
    time, and return the decoded length; bytes past the end of `out` are
    counted, not stored.  An invalid text raises what decoding it whole
    raises."""
    pos = 0
    for lo in range(0, len(text), _CHUNK):
        try:
            raw = base64.b64decode(text[lo:lo + _CHUNK], validate=True)
        except ValueError:
            base64.b64decode(text, validate=True)
            raise
        end = pos + len(raw)
        if end <= out.size:
            out[pos:end] = np.frombuffer(raw, dtype=np.uint8)
        pos = end
    return pos


def read(record, name: str) -> np.ndarray:
    """The writable float64 array of an array record; a malformed record or
    a non-finite value is a ValueError that begins with `name`.

    The payload is decoded a chunk at a time straight into the array, so a
    read holds the record's text, the array and one chunk."""
    if not isinstance(record, dict):
        raise ValueError(f"{name} is not an array record")
    for key in ("dtype", "shape", "base64"):
        if key not in record:
            raise ValueError(f"{name} has no {key!r} key")
    if record["dtype"] != DTYPE:
        raise ValueError(f"{name} dtype {record['dtype']!r} is not {DTYPE!r}")
    shape = record["shape"]
    if not (isinstance(shape, list) and all(is_count(n, 0) for n in shape)):
        raise ValueError(f"{name} shape {shape!r} is not a list of sizes")
    text, size = record["base64"], 8 * math.prod(shape)
    try:
        if _encodes(text, size):
            values = np.empty(shape, dtype=DTYPE)
            count = _decode_into(text, values.reshape(-1).view(np.uint8))
        else:
            count = len(base64.b64decode(text, validate=True))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not valid base64: {exc}") from exc
    if count != size:
        raise ValueError(f"{name} holds {count} bytes, shape {shape} "
                         f"needs {size}")
    # min and max propagate NaN and need no temporary the array's size
    if size and not (math.isfinite(values.min())
                     and math.isfinite(values.max())):
        raise ValueError(f"{name} is not all finite")
    return values
