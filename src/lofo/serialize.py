"""JSON schemas and canonical serialization.

Distribution files, one form per law kind (a stable scale defaults to 1):
    {"type": "finite", "atoms": [...], "masses": [...]}
    {"type": "gaussian", "sigma": s}
    {"type": "stable", "alpha": a, "scale": c}

Weight vectors are JSON arrays or newline-delimited text files.  A result's
JSON object is its dataclass fields, by name (``to_json``).  All output
JSON is canonical: UTF-8, sorted keys, floats at 17 significant digits
(lossless round-trip), so identical configurations produce byte-identical
files.  The encoder formats each distinct float once per call, since report
rows repeat most of their floats.  Writes go through a temp file plus rename.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from json.encoder import encode_basestring

import numpy as np

from .concentration import WeightVector
from .distributions import _KINDS, Dist
from .exceptions import ParseError


def dist_to_json(dist: Dist) -> dict:
    return dist._to_json()


def dist_from_json(obj: dict) -> Dist:
    """Law from its JSON object, by the kind its ``type`` names.

    Fields are converted to floats here, so a missing or non-numeric field is
    a ParseError, as is a ``type`` that names no kind; the law's own checks
    (e.g. masses summing to 1) still raise ValueError.
    """
    if not isinstance(obj, dict):
        raise ParseError("distribution JSON must be an object")
    kind = obj.get("type")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"unknown distribution type {kind!r}")
    return cls._from_json(functools.partial(_field, obj))


def _field(obj: dict, key: str, convert=float, default=None):
    kind = obj["type"]
    if key not in obj and default is None:
        raise ParseError(f"{kind} distribution needs the field {key!r}")
    try:
        return convert(obj.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{kind} distribution has a non-numeric field: {exc}") from None


def load_dist(path: str) -> Dist:
    with open(path, encoding="utf-8") as fh:
        return dist_from_json(json.load(fh))


def load_weights(path: str) -> WeightVector:
    """Weight vector from a JSON array file or newline-delimited text."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read().strip()
    try:
        values = json.loads(text) if text.startswith("[") else text.split()
        coords = np.asarray(values, dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise ParseError(f"weight file {path}: {exc}") from None
    if coords.size == 0:
        raise ParseError(f"empty weight file {path}")
    return WeightVector(coords)


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float has no canonical JSON form")
    return format(x, ".17g")


def dumps_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats.

    One pass appends the pieces to a list that is joined once at the end.
    Formatting a float costs several times a dict lookup, so each distinct
    float is formatted once per call and looked up after that: the cost is
    about c_float * (distinct floats) + c_node * (nodes).  A dict key that is
    not a str raises TypeError: JSON has no other object key.
    """
    out: list = []
    _encode(obj, out, {}, {})
    return "".join(out)


def _encode(obj, out: list, keys: dict, floats: dict) -> None:
    """Append the canonical JSON of obj to out.

    Dispatch is on the exact type, with the types of report rows first;
    subclasses and numpy scalars and arrays go through _builtin.  keys caches
    the encoded '"key":' of each str key: report rows repeat a few dozen keys
    thousands of times.  floats caches the text of each finite nonzero float:
    0.0 and -0.0 compare equal but print differently, so zeros are never
    stored, and a non-finite float raises before it could be.  A container
    closes by overwriting its trailing comma, which no value emits as a
    piece of its own.
    """
    t = type(obj)
    if t is float:
        text = floats.get(obj)
        if text is None:
            text = _format_float(obj)
            if obj:
                floats[obj] = text
        out.append(text)
    elif t is dict:
        out.append("{")
        for k in sorted(obj):
            key = keys.get(k)
            if key is None:
                if not isinstance(k, str):
                    raise TypeError(f"JSON object keys must be str, not {type(k).__name__}")
                key = keys[k] = encode_basestring(k) + ":"
            out.append(key)
            _encode(obj[k], out, keys, floats)
            out.append(",")
        if out[-1] == ",":
            out[-1] = "}"
        else:
            out.append("}")
    elif t is list or t is tuple:
        out.append("[")
        for v in obj:
            _encode(v, out, keys, floats)
            out.append(",")
        if out[-1] == ",":
            out[-1] = "]"
        else:
            out.append("]")
    elif t is str:
        out.append(encode_basestring(obj))
    elif t is int:
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif t is bool:
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    else:
        _encode(_builtin(obj), out, keys, floats)


def _builtin(obj):
    """The built-in value that obj serializes as; TypeError when there is none."""
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, dict):
        return dict(obj.items())
    if isinstance(obj, (list, tuple, np.ndarray)):
        return list(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_canonical(obj, path: str) -> None:
    """Atomic canonical-JSON write: temp file in the target dir, then rename."""
    text = dumps_canonical(obj) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
