"""Span-and-count tracing of the library's public functions, for the traced run.

``install`` wraps the functions and methods in ``FUNCTIONS`` and ``METHODS``.
``from .x import f`` copies a function into other modules, so every
attribute of every loaded ``cocycle`` module that is the original function
is replaced: the wrapper sees calls through ``cli.integrable_condition_check``
and ``dominated.sew`` as well as through the defining module.  Methods are
looked up on the class at call time and need one wrapper per defining class.

A span records its name, start, end and parent span in flat arrays kept in
memory.  After each job the arrays give per-name self time (duration minus
the part covered by child spans), outermost inclusive time and call counts.
Tracing assumes one thread, as the library runs with COCYCLE_THREADS unset
or 1.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, module, function)
FUNCTIONS = [
    ("one_forms.integrable", "cocycle.one_forms", "integrable_condition_check"),
    ("one_forms.slowly_varying", "cocycle.one_forms", "slowly_varying_certificate"),
    ("paths.signature", "cocycle.paths", "signature_piecewise_linear"),
    ("paths.pvar", "cocycle.paths", "p_variation"),
    ("sewing.sew", "cocycle.sewing", "sew"),
    ("sewing.sew", "cocycle.sewing", "sew_generic"),
    ("maps.double_integral", "cocycle.maps", "double_integral"),
    ("dominated.iterated_integral", "cocycle.dominated", "iterated_integral"),
    ("dominated.product", "cocycle.dominated", "product"),
    ("dominated.compose", "cocycle.dominated", "compose"),
    ("dominated.enhance", "cocycle.dominated", "enhance"),
    ("dominated.rebase", "cocycle.dominated", "rebase"),
    ("dominated.rough_integrate", "cocycle.dominated", "rough_integrate"),
    ("extension.extend", "cocycle.extension", "extend_to_level"),
    ("extension.extend", "cocycle.extension", "extend_one_level"),
    ("extension.lift", "cocycle.extension", "lift_into_group"),
    ("serialize.read", "cocycle.serialize", "read_csv_path"),
    ("serialize.read", "cocycle.serialize", "path_from_obj"),
    ("serialize.read", "cocycle.serialize", "tensor_from_obj"),
    ("serialize.read", "cocycle.serialize", "one_form_from_obj"),
    ("serialize.read", "cocycle.serialize", "function_from_obj"),
    ("serialize.to_obj", "cocycle.serialize", "path_to_obj"),
    ("serialize.to_obj", "cocycle.serialize", "tensor_to_obj"),
    ("serialize.dumps", "cocycle.serialize", "dumps"),
    ("cli.main", "cocycle.cli", "main"),
    ("shuffles.apply_inverse", "cocycle.shuffles", "apply_inverse"),
]

# (span name, module, class, method, also wrap overrides in subclasses)
METHODS = [
    ("one_forms.eval_pair", "cocycle.one_forms", "TimeVaryingOneForm", "eval_pair", True),
    ("one_forms.eval", "cocycle.one_forms", "TimeVaryingOneForm", "eval", True),
    ("paths.increment_norms", "cocycle.paths", "SampledGroupPath", "increment_norms", True),
    ("paths.control", "cocycle.paths", "Control", "__call__", True),
    ("algebra.mul", "cocycle.algebra", "HopfSystem", "mul", True),
    ("algebra.mul_levels", "cocycle.algebra", "HopfSystem", "mul_levels", True),
    ("algebra.inverse", "cocycle.algebra", "HopfSystem", "inverse", True),
    ("algebra.exp_log", "cocycle.algebra", "HopfSystem", "exp", True),
    ("algebra.exp_log", "cocycle.algebra", "HopfSystem", "log", True),
    ("algebra.grouplike_check", "cocycle.algebra", "HopfSystem", "grouplike_check", True),
    ("algebra.block_tuple", "cocycle.algebra", "HopfSystem", "block_tuple_tensor", True),
    ("dominated.from_form", "cocycle.dominated", "DominatedPath", "from_form", False),
    ("trees.table_build", "cocycle.algebra", "ForestSystem", "__init__", False),
]

# per-layer metric -> (kind, span name or counter); kinds:
#   self   self time of the spans, s          incl   outermost inclusive time, s
#   calls  number of spans                    extra  a counter kept by an observer
#   per_call / share   counter / calls of the span
LAYER_METRICS = {
    "one_forms.integrable_s": ("self", "one_forms.integrable"),
    "one_forms.integrable_incl_s": ("incl", "one_forms.integrable"),
    "one_forms.slowly_varying_s": ("self", "one_forms.slowly_varying"),
    "one_forms.slowly_varying_incl_s": ("incl", "one_forms.slowly_varying"),
    "one_forms.eval_pair_calls": ("calls", "one_forms.eval_pair"),
    "one_forms.eval_calls": ("calls", "one_forms.eval"),
    "one_forms.eval_s": ("self", "one_forms.eval"),
    "one_forms.eval_incl_s": ("incl", "one_forms.eval"),
    "paths.signature_s": ("self", "paths.signature"),
    "paths.increment_norms_s": ("self", "paths.increment_norms"),
    "paths.pvar_s": ("self", "paths.pvar"),
    "paths.control_calls": ("calls", "paths.control"),
    "paths.control_s": ("self", "paths.control"),
    "paths.control_distinct_frac": ("share", "control_windows", "paths.control"),
    "algebra.mul_calls": ("calls", "algebra.mul"),
    "algebra.mul_s": ("self", "algebra.mul"),
    "algebra.mul_levels_calls": ("calls", "algebra.mul_levels"),
    "algebra.mul_levels_s": ("self", "algebra.mul_levels"),
    "algebra.mul_levels_rows": ("per_call", "mul_levels_rows", "algebra.mul_levels"),
    "algebra.inverse_calls": ("calls", "algebra.inverse"),
    "algebra.exp_log_calls": ("calls", "algebra.exp_log"),
    "algebra.grouplike_check_s": ("self", "algebra.grouplike_check"),
    "algebra.block_tuple_calls": ("calls", "algebra.block_tuple"),
    "sewing.sew_s": ("self", "sewing.sew"),
    "sewing.sew_incl_s": ("incl", "sewing.sew"),
    "sewing.leaf_calls": ("extra", "sew_leaves"),
    "maps.double_integral_calls": ("calls", "maps.double_integral"),
    "maps.double_integral_s": ("self", "maps.double_integral"),
    "dominated.from_form_s": ("self", "dominated.from_form"),
    "dominated.from_form_incl_s": ("incl", "dominated.from_form"),
    "dominated.iterated_integral_s": ("self", "dominated.iterated_integral"),
    "dominated.iterated_integral_incl_s": ("incl", "dominated.iterated_integral"),
    "dominated.product_s": ("self", "dominated.product"),
    "dominated.product_incl_s": ("incl", "dominated.product"),
    "dominated.compose_s": ("self", "dominated.compose"),
    "dominated.compose_incl_s": ("incl", "dominated.compose"),
    "dominated.enhance_s": ("self", "dominated.enhance"),
    "dominated.enhance_incl_s": ("incl", "dominated.enhance"),
    "dominated.rebase_s": ("self", "dominated.rebase"),
    "dominated.rebase_incl_s": ("incl", "dominated.rebase"),
    "dominated.rough_integrate_s": ("self", "dominated.rough_integrate"),
    "dominated.rough_integrate_incl_s": ("incl", "dominated.rough_integrate"),
    "extension.extend_s": ("self", "extension.extend"),
    "extension.extend_incl_s": ("incl", "extension.extend"),
    "extension.lift_calls": ("calls", "extension.lift"),
    "extension.lift_s": ("self", "extension.lift"),
    "serialize.read_s": ("self", "serialize.read"),
    "serialize.to_obj_s": ("self", "serialize.to_obj"),
    "serialize.dumps_s": ("self", "serialize.dumps"),
    "serialize.bytes_out": ("extra", "bytes_out"),
    "cli.self_s": ("self", "cli.main"),
    "shuffles.apply_inverse_calls": ("calls", "shuffles.apply_inverse"),
    "trees.table_build_s": ("incl", "trees.table_build"),
    "job.unattributed_s": ("self", "job"),
    "job.spans": ("spans",),
}


class Tracer:
    """In-memory span store with per-job summaries."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.saved: list[dict] = []
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.reset()

    def reset(self):
        """Drop the stored spans; the arrays are cleared in place because
        every wrapper holds them."""
        for arr in (self.names, self.parents, self.starts, self.ends):
            del arr[:]
        self.current = -1
        self.extra = defaultdict(float)
        self.windows: set = set()

    def _id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def wrap(self, fn, name: str, observe=None):
        nid = self._id(name)
        perf = time.perf_counter
        tracer = self
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = tracer.current
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            tracer.current = idx
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                tracer.current = parent
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside one span named ``name``."""
        return self.wrap(fn, name)(*args)

    # -- summaries --------------------------------------------------------
    def summary(self) -> dict:
        """Per-name self time, inclusive time and counts of the stored spans."""
        n = len(self.names)
        if n == 0:
            return {"spans": 0, "by_name": {}, "extra": dict(self.extra),
                    "control_windows": len(self.windows)}
        names = np.frombuffer(self.names, dtype=np.int32, count=n).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int32, count=n).astype(np.int64)
        dur = np.frombuffer(self.ends, count=n) - np.frombuffer(self.starts, count=n)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        k = len(self.name_ids)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        calls = np.bincount(names, minlength=k)
        incl = np.zeros(k)
        coarse = [self.name_ids[m[1]] for m in LAYER_METRICS.values()
                  if m[0] == "incl" and m[1] in self.name_ids]
        for i in np.flatnonzero(np.isin(names, coarse)):
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:
                incl[names[i]] += dur[i]
        by_name = {
            name: (float(selfs[i]), float(incl[i]), int(calls[i]))
            for name, i in self.name_ids.items()
        }
        return {"spans": n, "by_name": by_name, "extra": dict(self.extra),
                "control_windows": len(self.windows)}

    def metrics(self) -> dict:
        """Per-layer metric values of the stored spans."""
        return layer_metrics(self.summary())

    def keep(self):
        """Move the current spans to the list written out at the end."""
        n = len(self.names)
        self.saved.append({
            "name": np.frombuffer(self.names, dtype=np.int32, count=n).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32, count=n).copy(),
            "start": np.frombuffer(self.starts, count=n).copy(),
            "end": np.frombuffer(self.ends, count=n).copy(),
        })
        self.reset()

    def write(self, path):
        """Spans of every kept job as one compressed archive."""
        arrays = {"names": np.array(sorted(self.name_ids, key=self.name_ids.get))}
        for j, spans in enumerate(self.saved):
            for key, arr in spans.items():
                arrays[f"job{j}_{key}"] = arr
        np.savez_compressed(path, **arrays)


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values of one job from its span summary."""
    by_name = summary["by_name"]
    out = {}
    for metric, spec in LAYER_METRICS.items():
        kind = spec[0]
        if kind == "spans":
            out[metric] = float(summary["spans"])
            continue
        if kind == "extra":
            out[metric] = float(summary["extra"].get(spec[1], 0.0))
            continue
        if kind in ("per_call", "share"):
            calls = by_name.get(spec[2], (0.0, 0.0, 0))[2]
            count = (summary["control_windows"] if kind == "share"
                     else summary["extra"].get(spec[1], 0.0))
            out[metric] = float(count) / calls if calls else 0.0
            continue
        self_s, incl_s, calls = by_name.get(spec[1], (0.0, 0.0, 0))
        out[metric] = {"self": self_s, "incl": incl_s, "calls": float(calls)}[kind]
    return out


def _observers(tracer: Tracer) -> dict:
    """Counters kept beside the spans, keyed by function or method name."""

    def rows(args, result):  # leading (batch) rows of the product
        shape = np.shape(result[0])[:-1]
        tracer.extra["mul_levels_rows"] += math.prod(shape)

    def leaves(args, result):  # sew_generic(eval_pair, N, ...) folds N - 1 leaves
        tracer.extra["sew_leaves"] += max(int(args[1]) - 1, 0)

    def bytes_out(args, result):
        tracer.extra["bytes_out"] += len(result.encode("utf-8"))

    def window(args, result):
        tracer.windows.add((id(args[0]), args[1], args[2]))

    return {"mul_levels": rows, "sew_generic": leaves, "dumps": bytes_out, "__call__": window}


def _subclasses(cls):
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def install(tracer: Tracer):
    """Wrap every listed function and method of the loaded library."""
    importlib.import_module("cocycle.cli")
    modules = [m for name, m in sys.modules.items()
               if (name == "cocycle" or name.startswith("cocycle.")) and m is not None]
    observers = _observers(tracer)
    for span, modname, attr in FUNCTIONS:
        orig = getattr(importlib.import_module(modname), attr)
        wrapped = tracer.wrap(orig, span, observers.get(attr))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    for span, modname, clsname, meth, subclasses in METHODS:
        base = getattr(importlib.import_module(modname), clsname)
        for cls in _subclasses(base) if subclasses else [base]:
            raw = cls.__dict__.get(meth)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(raw.__func__, span, observers.get(meth)))
            else:
                new = tracer.wrap(raw, span, observers.get(meth))
            setattr(cls, meth, new)
