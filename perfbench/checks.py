"""Output checks, one per workload; a job that fails its check counts as failed.

Checks compare numbers with tolerances, never bytes, so output documents that
only gain keys still pass.  The references are the independent oracles in
``cocycle.oracles`` and the identities the acceptance suite states.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from inputs import ONE_FORM


class CheckFailed(Exception):
    pass


def require(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def load_csv(path: str):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]


def cli_output(work: Path, name: str) -> dict:
    meta = json.loads((work / f"{name}.meta.json").read_text())
    require(meta["exit"] == 0, f"{name}: exit {meta['exit']}: {meta['stderr'][:300]}")
    return json.loads((work / f"{name}.out").read_text())


def one_form_arrays():
    return [np.asarray(a, dtype=float) for a in ONE_FORM["derivatives"]]


def oracle_mesh(pts) -> int:
    """Oracle meshes refining every segment 4 and 8 times.

    The oracles subdivide each segment ceil(mesh / segments) times; below
    two subdivisions both meshes coincide and the Richardson tolerance
    collapses to zero.
    """
    return 4 * (len(pts) - 1)


class Checker:
    """Checks job outputs against schemas, oracles and exact identities."""

    def __init__(self, root: Path):
        import jsonschema
        from cocycle import extension, oracles, serialize

        self.validator = {
            name: jsonschema.Draft7Validator(
                json.loads((root / "schemas" / f"{name}.schema.json").read_text())
            )
            for name in ("certify", "trace", "pvar")
        }
        self.oracles = oracles
        self.serialize = serialize
        self.extension = extension

    def validate(self, schema: str, obj, what: str):
        errors = [e.message for e in self.validator[schema].iter_errors(obj)]
        require(not errors, f"{what}: schema {schema}: {errors[:3]}")

    def check(self, workload: str, work: Path, files: dict):
        getattr(self, workload)(work, files)

    def certify(self, work: Path, files: dict):
        cert = cli_output(work, "certify")
        self.validate("certify", cert, "certify")
        require(cert["integrable"]["ok"], "certify: integrable certificate not ok")
        trace = cli_output(work, "integrate")
        self.validate("trace", trace, "integrate")
        times, pts = load_csv(files["path"])
        rows = trace["trace"]
        require(len(rows) == len(times), "integrate: trace length differs from the grid")
        require(np.allclose([r["t"] for r in rows], times, rtol=0, atol=1e-12),
                "integrate: trace times differ from the input grid")
        value, tol = self.oracles.riemann_one_form_integral(
            one_form_arrays(), pts, mesh=oracle_mesh(pts), times=times
        )
        dev = float(np.abs(np.asarray(rows[-1]["value"]) - value).max())
        require(dev <= tol, f"integrate: trace end off the Riemann oracle by {dev:.3e} > {tol:.3e}")

    def calculus(self, work: Path, files: dict):
        with np.load(work / "arrays.npz") as npz:
            arr = {k: npz[k] for k in npz.files}
        for name, value in arr.items():
            require(np.all(np.isfinite(value)), f"calculus: non-finite {name}")
        dev = float(np.abs(arr["rebased"] - arr["direct"]).max())
        require(dev <= 1e-8, f"calculus: rebased iterated integral off the direct one by {dev:.3e}")
        for name in ("enhance_mult", "rough_mult"):
            require(float(arr[name]) <= 1e-10, f"calculus: {name} = {float(arr[name]):.3e}")
        expect = np.einsum("ni,nj->nij", arr["x"], arr["x"]).reshape(len(arr["x"]), -1)
        dev = float(np.abs(arr["product"] - expect).max())
        require(dev <= 1e-9, f"calculus: product trace off the tensor of traces by {dev:.3e}")
        dev = float(np.abs(arr["rough_level1"] - arr["y"]).max())
        require(dev <= 1e-9, f"calculus: rough_integrate level 1 off the coupling by {dev:.3e}")
        times, pts = load_csv(files["path"])
        value, tol = self.oracles.riemann_one_form_integral(
            one_form_arrays(), pts, mesh=oracle_mesh(pts), times=times
        )
        dev = float(np.abs(arr["y"][-1] - value).max())
        require(dev <= tol, f"calculus: rough integral off the Riemann oracle by {dev:.3e} > {tol:.3e}")

    def extend(self, work: Path, files: dict):
        ser = self.serialize
        sig = cli_output(work, "signature")
        times, pts = load_csv(files["path"])
        last = {c["index"]: c["value"] for c in sig["values"][-1]}
        for word in ((1,), (2,), (1, 1), (1, 2), (2, 1)):
            value, tol = self.oracles.quadrature_iterated_integral(
                pts, word, mesh=oracle_mesh(pts), times=times
            )
            got = last.get(".".join(map(str, word)), 0.0)
            require(abs(got - value) <= tol,
                    f"signature: word {word} is {got!r}, oracle {value!r} +- {tol:.2e}")
        for name in ("pvar", "forest_pvar"):
            obj = cli_output(work, name)
            self.validate("pvar", obj, name)
            require(np.isfinite(obj["p_variation"]) and obj["p_variation"] > 0,
                    f"{name}: p-variation {obj['p_variation']!r}")
        for name, source in (("extend", work / "signature.json"),
                             ("forest_extend", Path(files["forest"]))):
            obj = cli_output(work, name)
            base = ser.path_from_obj(json.loads(source.read_text()))
            ext = ser.path_from_obj(obj)
            res = self.extension.projection_residual(ext, base)
            require(res <= 1e-12, f"{name}: projection residual {res:.3e}")
            for i, v in enumerate(ext.values):
                require(ext.system.grouplike_check(v, 1e-9 * max(1.0, v.norm())),
                        f"{name}: value {i} fails the grouplike relations")
            require(all(np.isfinite(r) and r > 0 for r in obj["pvar_ratios"]),
                    f"{name}: p-variation ratios {obj['pvar_ratios']!r}")
