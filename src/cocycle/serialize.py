"""Canonical JSON and CSV interchange for tensors, paths and one-forms.

Floats render at 17 significant digits, coefficient lists follow the
canonical index order (degree, then basis position), and zero coefficients
are omitted, so equal objects serialize byte-identically.
"""

from __future__ import annotations

import json

import numpy as np

from . import trees
from .algebra import GradedIndex, GradedTensor, tensor_system
from .one_forms import LipFunction
from .paths import SampledGroupPath


class InputError(ValueError):
    """Malformed user input (CSV or JSON); message carries the location."""


def format_float(x: float) -> str:
    if not np.isfinite(x):
        raise OverflowError(f"non-finite value {x!r} in output")
    out = format(float(x), ".17g")
    return out


def dumps(obj) -> str:
    """Deterministic JSON with fixed float formatting."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj, out: list):
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _write(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write(v, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(str(obj)))


def parse_index(kind: str, text: str) -> GradedIndex:
    if kind == "nilpotent":
        if text == "()":
            return GradedIndex(kind, 0, ())
        word = tuple(int(x) for x in text.split("."))
        return GradedIndex(kind, len(word), word)
    forest = trees.parse_forest(text)
    return GradedIndex(kind, trees.forest_size(forest), forest)


def _coeffs_to_obj(t: GradedTensor) -> list:
    """Nonzero coefficients in canonical index order."""
    system = t.system
    coeffs = []
    for k in range(system.n + 1):
        for idx in system.indices(k):
            val = t.levels[k][system.index_position(idx)]
            if val != 0.0:
                coeffs.append({"index": str(idx), "value": float(val)})
    return coeffs


def _coeffs_from_obj(system, rows) -> GradedTensor:
    t = system.zero()
    for row in rows:
        idx = parse_index(system.kind, row["index"])
        value = float(row["value"])
        if not np.isfinite(value):
            raise ValueError(f"non-finite coefficient {row['value']!r} at {row['index']}")
        t.levels[idx.degree][system.index_position(idx)] = value
    return t


def tensor_to_obj(t: GradedTensor) -> dict:
    system = t.system
    return {"system": system.kind, "d": system.d, "n": system.n, "coeffs": _coeffs_to_obj(t)}


def tensor_from_obj(obj: dict) -> GradedTensor:
    try:
        system = tensor_system(obj["system"], int(obj["d"]), int(obj["n"]))
        return _coeffs_from_obj(system, obj["coeffs"])
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad tensor object: {exc}") from exc


def path_to_obj(path: SampledGroupPath) -> dict:
    system = path.system
    return {
        "system": system.kind,
        "d": system.d,
        "n": system.n,
        "times": [float(t) for t in path.times],
        "values": [_coeffs_to_obj(v) for v in path.values],
    }


def path_from_obj(obj: dict) -> SampledGroupPath:
    try:
        system = tensor_system(obj["system"], int(obj["d"]), int(obj["n"]))
        values = [_coeffs_from_obj(system, coeffs) for coeffs in obj["values"]]
        times = [float(x) for x in obj["times"]]
        if not np.all(np.isfinite(times)):
            raise ValueError("non-finite time")
        return SampledGroupPath(system, times, values)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad path object: {exc}") from exc


def read_csv_path(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse `t,x1,...,xd` rows; returns (times, points)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty CSV input")
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "t" or len(header) < 2:
        raise InputError(f"line 1: header must be t,x1,...,xd, got {lines[0]!r}")
    for j, name in enumerate(header[1:], start=1):
        if name != f"x{j}":
            raise InputError(f"line 1: column {j + 1} must be x{j}, got {name!r}")
    d = len(header) - 1
    times, rows = [], []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != d + 1:
            raise InputError(f"line {i}: expected {d + 1} fields, got {len(parts)}")
        try:
            vals = [float(x) for x in parts]
        except ValueError as exc:
            raise InputError(f"line {i}: {exc}") from exc
        if not np.all(np.isfinite(vals)):
            raise InputError(f"line {i}: non-finite value")
        times.append(vals[0])
        rows.append(vals[1:])
    times = np.array(times)
    if not np.all(np.diff(times) > 0):
        bad = int(np.argmax(~(np.diff(times) > 0))) + 3
        raise InputError(f"line {bad}: times must be strictly increasing")
    if len(times) < 2:
        raise InputError("need at least two samples")
    return times, np.array(rows)


def one_form_from_obj(obj: dict) -> LipFunction:
    """Polynomial one-form file: derivative arrays of (D^l p)(0).

    Array l has shape (target_dim, d) + (d,)*l: output, direction, then the
    symmetric derivative slots (validated).
    """
    try:
        d = int(obj["d"])
        m = int(obj["target_dim"])
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad one-form object: {exc}") from exc
    return _polynomial_from_obj(obj, "one-form", lambda l: (m, d) + (d,) * l)


def function_from_obj(obj: dict) -> LipFunction:
    """Scalar/vector polynomial function file (for composition)."""
    try:
        in_dim = int(obj["in_dim"])
        out_dim = int(obj["out_dim"])
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad function object: {exc}") from exc
    return _polynomial_from_obj(obj, "function", lambda l: (out_dim,) + (in_dim,) * l)


def _polynomial_from_obj(obj: dict, what: str, shape) -> LipFunction:
    """Finite derivative arrays of the wanted shapes, and an optional finite gamma."""
    try:
        degree = int(obj["degree"])
        arrays = [np.asarray(a, dtype=float) for a in obj["derivatives"]]
        gamma = obj.get("gamma")
        gamma = None if gamma is None else float(gamma)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad {what} object: {exc}") from exc
    if degree < 0 or len(arrays) != degree + 1:
        raise InputError(f"degree {degree} needs degree + 1 >= 1 derivative arrays, got {len(arrays)}")
    for l, arr in enumerate(arrays):
        if arr.shape != shape(l):
            raise InputError(f"derivative {l}: shape {arr.shape}, want {shape(l)}")
        if not np.all(np.isfinite(arr)):
            raise InputError(f"derivative {l}: non-finite value")
    if gamma is not None and not np.isfinite(gamma):
        raise InputError(f"non-finite gamma {gamma!r}")
    try:
        return LipFunction.from_polynomial(arrays, gamma=gamma)
    except ValueError as exc:  # derivative slots that are not symmetric
        raise InputError(f"bad {what} object: {exc}") from exc
