"""JSON schemas and canonical serialization.

Distribution files:
    {"type": "finite", "atoms": [...], "masses": [...]}
    {"type": "gaussian", "sigma": s}
    {"type": "stable", "alpha": a, "scale": c}

Weight vectors are JSON arrays or newline-delimited text files.  All output
JSON is canonical: UTF-8, sorted keys, floats at 17 significant digits
(lossless round-trip), so identical configurations produce byte-identical
files.  Writes go through a temp file plus rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .concentration import WeightVector
from .distributions import AnalyticDist, Dist, FiniteDist
from .exceptions import ParseError


def dist_to_json(dist: Dist) -> dict:
    if isinstance(dist, FiniteDist):
        return {
            "type": "finite",
            "atoms": [float(x) for x in dist.atoms],
            "masses": [float(m) for m in dist.masses],
        }
    if dist.kind == "gaussian":
        return {"type": "gaussian", "sigma": dist.sigma}
    if dist.kind == "stable":
        return {"type": "stable", "alpha": dist.alpha, "scale": dist.scale}
    raise ValueError("user-CF distributions have no file representation")


def dist_from_json(obj: dict) -> Dist:
    if not isinstance(obj, dict):
        raise ParseError("distribution JSON must be an object")
    kind = obj.get("type")
    try:
        if kind == "finite":
            return FiniteDist(obj["atoms"], obj["masses"])
        if kind == "gaussian":
            return AnalyticDist.gaussian(float(obj["sigma"]))
        if kind == "stable":
            return AnalyticDist.stable(float(obj["alpha"]), float(obj.get("scale", 1.0)))
    except KeyError as exc:
        raise ParseError(f"{kind} distribution needs the field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ParseError(f"{kind} distribution has a non-numeric field: {exc}") from None
    raise ParseError(f"unknown distribution type {kind!r}")


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
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float has no canonical JSON form")
    return format(x, ".17g")


def dumps_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats."""
    return _canon(obj)


def _canon(obj) -> str:
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ",".join(f"{json.dumps(k, ensure_ascii=False)}:{_canon(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
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
