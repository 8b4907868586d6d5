"""Deterministic JSON encoding and file formats for library values.

``to_jsonable`` turns library values into plain trees: a dataclass becomes
the dict of its fields, a complex number an [re, im] pair, an ndarray a list
of floats (of pairs when complex), a numpy scalar the Python one, and a
non-finite float the string "nan", "inf" or "-inf".  ``dumps`` hands that
tree to the stdlib encoder with sorted keys, which prints every float as the
shortest text that reads back to the same float, so identical values
serialize to identical bytes.  Byte-level reproducibility of the run
artifacts is part of the CLI contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

from .errors import InvalidInputError
from .series import CoeffSeries
from .boundary import BoundarySet


def dumps(obj) -> str:
    """One-line JSON with sorted keys; a non-finite float raises ValueError."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _finite_or_name(x: float):
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _array_to_jsonable(value: np.ndarray) -> list:
    if np.iscomplexobj(value):
        flat = value.astype(np.complex128).view(np.float64).reshape(-1, 2)
    else:
        flat = value.astype(np.float64)
    out = flat.tolist()
    if not np.all(np.isfinite(flat)):
        return to_jsonable(out)
    return out


def to_jsonable(value):
    """Convert library values into plain trees that ``dumps`` understands."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return _array_to_jsonable(value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, complex):
        return [_finite_or_name(value.real), _finite_or_name(value.imag)]
    if isinstance(value, float):
        return _finite_or_name(value)
    return value


def coeff_series_from_json(data: dict) -> CoeffSeries:
    try:
        coeffs = [complex(re, im) for re, im in data["coeffs"]]
        tail = float(data.get("tail_bound", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError("malformed coefficient file: %s" % exc)
    return CoeffSeries(coeffs, tail)


def boundary_set_from_json(data: dict) -> BoundarySet:
    try:
        points = tuple(float(p) for p in data.get("points", []))
        arcs = tuple((float(c), float(h)) for c, h in data.get("arcs", []))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError("malformed boundary-set file: %s" % exc)
    return BoundarySet(points=points, arcs=arcs)


def targets_from_json(data: dict) -> dict:
    """Target files: {"targets": [[angle, re, im], ...]} -> {angle: complex}."""
    try:
        return {float(t): complex(re, im) for t, re, im in data["targets"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError("malformed target file: %s" % exc)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
