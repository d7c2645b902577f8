"""The three benchmark jobs.

Each job function runs the program on one job's input files and returns its
raw results; the worker times the call and saves the results afterwards, so
only the program's own work is inside the timed region.  Library functions
are looked up on their modules at call time, so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import cocycle
import cocycle.cli
import cocycle.serialize

P = 2.0
THETA = 1.5  # (min(gamma, [p]) + 1) / p for the gamma = 2, p = 2 one-form


def cli(argv: list[str]) -> dict:
    """Run ``cocycle <argv>`` in-process, capturing both output streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cocycle.cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def certify(files: dict, work: Path) -> dict:
    """Certificates on the coarse grid, then the certified integral."""
    return {
        "certify": cli(["certify", "--form", files["form"], "--p", "2", files["coarse"]]),
        "integrate": cli(["integrate", "--form", files["form"], "--p", "2", files["path"]]),
    }


def calculus(files: dict, work: Path) -> dict:
    """The dominated-path calculus chain at depth 2, ltr sewing, no checks."""
    ser = cocycle.serialize
    times, pts = ser.read_csv_path(Path(files["path"]).read_text())
    f = ser.one_form_from_obj(json.loads(Path(files["form"]).read_text()))
    cubic = ser.function_from_obj(json.loads(Path(files["func"]).read_text()))
    g = cocycle.signature_piecewise_linear(pts, 2, times=times)
    omega = cocycle.control_from_pvar(g, P)
    x = cocycle.coordinate_coupling(g, omega, THETA, P)
    form = cocycle.RoughOneForm(f, g, P)
    y = cocycle.DominatedPath.from_form(g, form, omega, form.theta, P, check=False)
    direct = cocycle.iterated_integral(x, x, schedule="ltr", check=False)
    prod = cocycle.product(x, x, schedule="ltr", check=False)
    comp = cocycle.compose(y, cubic, schedule="ltr", check=False)
    enh = cocycle.enhance(x, schedule="ltr")
    lifted = enh.as_sampled_path()
    outer_base = cocycle.coordinate_coupling(
        lifted, cocycle.control_from_pvar(lifted, P), THETA, P
    )
    outer = cocycle.iterated_integral(outer_base, outer_base, schedule="ltr", check=False)
    rebased = cocycle.rebase(outer, enh, schedule="ltr")
    rough = cocycle.rough_integrate(f, g, P, schedule="ltr")
    return {
        "x": x.trace,
        "y": y.trace,
        "direct": direct.trace,
        "rebased": rebased.trace,
        "product": prod.trace,
        "compose": comp.trace,
        "rough_level1": np.stack([v.levels[1] for v in rough.values]),
        "enhance_mult": enh.multiplicativity_residual(),
        "rough_mult": rough.multiplicativity_residual(),
    }


def extend(files: dict, work: Path) -> dict:
    """Word-system signature, p-variation and extension; forest-system ditto."""
    sig_file = work / "signature.json"
    out = {"signature": cli(["signature", "--depth", "2", files["path"]])}
    sig_file.write_text(out["signature"]["stdout"])
    out["pvar"] = cli(["pvar", "--p", "2.5", "--depth", "3", files["path"]])
    out["extend"] = cli(["extend", "--to-level", "4", "--p", "1.5", str(sig_file)])
    out["forest_pvar"] = cli(["pvar", "--system", "butcher", "--p", "2.5", files["forest"]])
    out["forest_extend"] = cli(
        ["extend", "--system", "butcher", "--to-level", "3", "--p", "2.5", files["forest"]]
    )
    return out


JOBS = {"certify": certify, "calculus": calculus, "extend": extend}

# coefficient systems each workload uses, built during set-up
SYSTEMS = {
    "certify": [("nilpotent", 2, 2)],
    "calculus": [("nilpotent", 2, 2), ("nilpotent", 1, 2)],
    "extend": [
        ("nilpotent", 2, 2),
        ("nilpotent", 2, 3),
        ("nilpotent", 2, 4),
        ("butcher", 2, 2),
        ("butcher", 2, 3),
    ],
}


def build_tables(workload: str):
    """Set-up: the workload's coefficient systems, bases and shuffle tables."""
    for kind, d, n in SYSTEMS[workload]:
        system = cocycle.tensor_system(kind, d, n)
        list(system.all_indices())
        system.grouplike_check(system.unit())


def save(results: dict, work: Path):
    """Write a job's results for the output checks (outside the timed region)."""
    arrays = {}
    for name, value in results.items():
        if isinstance(value, dict):
            (work / f"{name}.out").write_text(value["stdout"])
            (work / f"{name}.meta.json").write_text(
                json.dumps({"exit": value["exit"], "stderr": value["stderr"]})
            )
        else:
            arrays[name] = np.asarray(value)
    if arrays:
        np.savez(work / "arrays.npz", **arrays)
