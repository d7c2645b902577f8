"""Canonical JSON and CSV interchange for tensors, paths and one-forms.

Floats render at 17 significant digits, coefficient lists follow the
canonical index order (degree, then basis position), and zero coefficients
are omitted, so equal objects serialize byte-identically.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np

from . import trees
from .algebra import GradedIndex, GradedTensor, has_unit_scalar, tensor_system
from .one_forms import LipFunction
from .paths import SampledGroupPath


class InputError(ValueError):
    """Malformed user input (CSV or JSON); message carries the location."""


MAX_STACKED_COEFFICIENTS = 2**26  # 512 MiB of float64


def require_stacked_size(kind: str, d: int, n: int, rows: int):
    """Refuse ``rows`` points at level n of the (kind, d) system whose stacked
    levels hold more than ``MAX_STACKED_COEFFICIENTS`` coefficients.

    Counted before any system is built: word dimensions are d^k, forest
    dimensions come from :func:`trees.forest_counts`; a deep level is refused
    by its number of degrees alone, without counting them one by one.
    """
    size = rows * (n + 1)  # each dimension is at least one, and is one for words at d = 1
    if size <= MAX_STACKED_COEFFICIENTS and not (kind == "nilpotent" and d == 1):
        dims = trees.forest_counts(d) if kind == "butcher" else (d**k for k in itertools.count())
        size = 0
        for dim in itertools.islice(dims, n + 1):
            size += rows * dim
            if size > MAX_STACKED_COEFFICIENTS:
                break
    if size > MAX_STACKED_COEFFICIENTS:
        raise InputError(
            f"{rows} points at level {n} of the {kind} system with d = {d} hold more than "
            f"{MAX_STACKED_COEFFICIENTS} stacked coefficients"
        )


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise OverflowError(f"non-finite value {x!r} in output")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Deterministic JSON with fixed float formatting.

    Dicts are objects with ``str`` keys, lists and tuples are arrays, Python
    and numpy booleans are ``true``/``false``, integers print exactly, floats
    through :func:`format_float`, ``None`` is ``null``, and any other value is
    the JSON string of its ``str``.  Each value is written by the writer of its
    exact type, chosen once per type.
    """
    return _dumps(obj)


def _dumps(obj) -> str:
    # the recursion, kept apart from the public name so that one document is one dumps call
    return _writer_for(type(obj))(obj)


@lru_cache(maxsize=1024)
def _json_str(s: str) -> str:
    """``json.dumps(s)``, once per distinct string: keys and index names repeat."""
    return json.dumps(s)


def _write_dict(obj: dict) -> str:
    return "{" + ",".join([_json_str(str(k)) + ":" + _dumps(v) for k, v in obj.items()]) + "}"


def _write_list(obj) -> str:
    return "[" + ",".join([_dumps(v) for v in obj]) + "]"


@lru_cache(maxsize=None)
def _writer_for(kind: type):
    """The writer of values of type ``kind``; bool is tested before int, its base."""
    if issubclass(kind, dict):
        return _write_dict
    if issubclass(kind, (list, tuple)):
        return _write_list
    if issubclass(kind, (bool, np.bool_)):
        return lambda x: "true" if x else "false"
    if issubclass(kind, (int, np.integer)):
        return lambda x: str(int(x))
    if kind is float:
        return format_float
    if issubclass(kind, (float, np.floating)):
        return lambda x: format_float(float(x))
    if kind is type(None):
        return lambda x: "null"
    return lambda x: _json_str(str(x))


def parse_index(kind: str, text: str) -> GradedIndex:
    if kind == "nilpotent":
        if text == "()":
            return GradedIndex(kind, 0, ())
        word = tuple(int(x) for x in text.split("."))
        return GradedIndex(kind, len(word), word)
    forest = trees.parse_forest(text)
    return GradedIndex(kind, trees.forest_size(forest), forest)


def _coeffs_to_obj(system, rows: list, i: int) -> list:
    """Nonzero coefficients of row i of the stacked levels ``rows``, in canonical
    index order (degree, then basis position)."""
    coeffs = []
    for k in range(system.n + 1):
        row = rows[k][i]
        names = _index_names(system, k)
        nonzero = np.flatnonzero(row)
        for pos, val in zip(nonzero.tolist(), row[nonzero].tolist()):
            coeffs.append({"index": names[pos], "value": val})
    return coeffs


@lru_cache(maxsize=None)
def _index_names(system, k: int) -> list:
    """The index strings of degree k, in basis-position order."""
    names = [None] * system.dim(k)
    for idx in system.indices(k):
        names[system.index_position(idx)] = str(idx)
    return names


@lru_cache(maxsize=None)
def _parsed_index(kind: str, text: str) -> GradedIndex:
    """``parse_index``, once per distinct string; a string that fails to parse is not kept."""
    return parse_index(kind, text)


@lru_cache(maxsize=None)
def _basis_slot(system, idx: GradedIndex) -> tuple:
    """``(degree, position)`` of a parsed index; an index outside the basis is refused."""
    if idx.degree > system.n or (
        idx.kind == "nilpotent" and not all(1 <= a <= system.d for a in idx.payload)
    ):
        raise ValueError(
            f"index {str(idx)!r} is not in the {system.kind} basis with d={system.d}, n={system.n}"
        )
    return idx.degree, system.index_position(idx)


def _coeffs_from_obj(system, rows, levels: list, i: int):
    """Fill row i of the stacked ``levels`` from coefficient rows.

    Errors come in the order index syntax, value, basis position.
    """
    for row in rows:
        text = row["index"]
        if not isinstance(text, str):
            raise ValueError(f"index {text!r} is not a string")
        idx = _parsed_index(system.kind, text)
        value = float(row["value"])
        if not np.isfinite(value):
            raise ValueError(f"non-finite coefficient {row['value']!r} at {text}")
        degree, pos = _basis_slot(system, idx)
        levels[degree][i, pos] = value


def _zero_levels(system, N: int) -> list:
    return [np.zeros((N, system.dim(k))) for k in range(system.n + 1)]


def tensor_to_obj(t: GradedTensor) -> dict:
    system = t.system
    rows = [l[None] for l in t.levels]
    return {"system": system.kind, "d": system.d, "n": system.n, "coeffs": _coeffs_to_obj(system, rows, 0)}


def tensor_from_obj(obj: dict) -> GradedTensor:
    try:
        system = tensor_system(obj["system"], int(obj["d"]), int(obj["n"]))
        levels = _zero_levels(system, 1)
        _coeffs_from_obj(system, obj["coeffs"], levels, 0)
        return GradedTensor(system, [l[0] for l in levels])
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad tensor object: {exc}") from exc


def path_to_obj(path: SampledGroupPath) -> dict:
    system = path.system
    return {
        "system": system.kind,
        "d": system.d,
        "n": system.n,
        "times": [float(t) for t in path.times],
        "values": [_coeffs_to_obj(system, path.levels, i) for i in range(len(path))],
    }


def path_from_obj(obj: dict) -> SampledGroupPath:
    try:
        kind, d, n = obj["system"], int(obj["d"]), int(obj["n"])
        values = list(obj["values"])
        require_stacked_size(kind, d, n, len(values))
        system = tensor_system(kind, d, n)
        levels = _zero_levels(system, len(values))
        for i, coeffs in enumerate(values):
            _coeffs_from_obj(system, coeffs, levels, i)
        times = [float(x) for x in obj["times"]]
        if not np.all(np.isfinite(times)):
            raise ValueError("non-finite time")
        if not values:
            raise ValueError("a path needs at least one point")
        path = SampledGroupPath(system, times, levels)
        if not has_unit_scalar(path.levels):
            raise ValueError("path values need degree-0 coefficient 1")
        return path
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
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        try:
            if len(parts) != d + 1:
                raise ValueError(f"expected {d + 1} fields, got {len(parts)}")
            rows.append([float(x) for x in parts])
        except ValueError as exc:
            _finite_table(rows, d)  # a non-finite value on an earlier line is the first fault
            raise InputError(f"line {i}: {exc}") from exc
    table = _finite_table(rows, d)
    times = np.ascontiguousarray(table[:, 0])
    if not np.all(np.diff(times) > 0):
        bad = int(np.argmax(~(np.diff(times) > 0))) + 3
        raise InputError(f"line {bad}: times must be strictly increasing")
    if len(times) < 2:
        raise InputError("need at least two samples")
    return times, np.ascontiguousarray(table[:, 1:])


def _finite_table(rows, d: int) -> np.ndarray:
    """The parsed CSV data rows as one ``(M, d + 1)`` array, refusing the first
    line (data starts on line 2) that holds a non-finite value."""
    table = np.array(rows, dtype=float).reshape(len(rows), d + 1)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise InputError(f"line {int(bad[0]) + 2}: non-finite value")
    return table


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
