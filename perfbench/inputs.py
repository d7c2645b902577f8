"""Seeded input files for the benchmark jobs.

Every path is a 2-D Gaussian random walk scaled by 1/sqrt(N) on a uniform
time grid in [0, 1].  Job ``j`` of a run with seed ``s`` draws from
``numpy.random.default_rng([s, workload_index, j])``, so the same seed gives
the same inputs and every job of a run sees a different path of the same
shape.  The program only ever receives the files written here.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("certify", "calculus", "extend")

# degree-1 polynomial one-form on R^2 with target dimension 1:
# derivatives[l] has shape (target_dim, d) + (d,) * l
ONE_FORM = {
    "d": 2,
    "target_dim": 1,
    "degree": 1,
    "gamma": 2.0,
    "derivatives": [[[0.3, -0.5]], [[[1.0, 0.2], [0.4, -0.7]]]],
}

# cubic outer function for `compose` (gamma 3.5 > p = 2), on the 1-D trace
CUBIC = {
    "in_dim": 1,
    "out_dim": 1,
    "degree": 3,
    "gamma": 3.5,
    "derivatives": [[0.0], [[0.5]], [[[0.4]]], [[[[0.6]]]]],
}

# input sizes (grid points) of one job, recorded with every result
SIZES = {
    "certify": {"certify_N": 40, "integrate_N": 200, "d": 2},
    "calculus": {"N": 1000, "d": 2, "depth": 2},
    "extend": {"word_N": 1000, "forest_N": 150, "d": 2},
}


def random_walk(rng: np.random.Generator, n_points: int, d: int = 2):
    """Times and points of a scaled Gaussian walk starting at the origin."""
    steps = rng.normal(size=(n_points - 1, d)) / np.sqrt(n_points)
    pts = np.vstack([np.zeros((1, d)), steps.cumsum(axis=0)])
    return np.linspace(0.0, 1.0, n_points), pts


def write_csv(path: Path, times, pts):
    lines = ["t," + ",".join(f"x{j + 1}" for j in range(pts.shape[1]))]
    for t, row in zip(times, pts):
        lines.append(",".join(repr(float(x)) for x in (t, *row)))
    path.write_text("\n".join(lines) + "\n")


# basis of the level-2 forest system over labels {1, 2}, in the interchange
# spelling: single-node trees, two-node trees root[child], two-tree forests
_TREES_1 = ("1", "2")
_TREES_2 = ("1[1]", "1[2]", "2[1]", "2[2]")
_PAIRS = (("1 1", 0, 0), ("1 2", 0, 1), ("2 2", 1, 1))


def forest_character_path(rng: np.random.Generator, n_points: int) -> dict:
    """Path JSON of random level-2 Butcher characters over d = 2 labels.

    Tree coefficients follow random walks (degree-1 trees scaled by
    1/sqrt(N), degree-2 trees by 1/N); each forest coefficient is the product
    of its trees' values, so every point is a character (grouplike).
    """
    one = rng.normal(size=(n_points - 1, 2)) / np.sqrt(n_points)
    two = rng.normal(size=(n_points - 1, 4)) / n_points
    one = np.vstack([np.zeros((1, 2)), one.cumsum(axis=0)])
    two = np.vstack([np.zeros((1, 4)), two.cumsum(axis=0)])
    values = []
    for a, b in zip(one, two):
        coeffs = [{"index": "()", "value": 1.0}]
        coeffs += [{"index": k, "value": float(v)} for k, v in zip(_TREES_1, a)]
        coeffs += [{"index": k, "value": float(v)} for k, v in zip(_TREES_2, b)]
        coeffs += [{"index": k, "value": float(a[i] * a[j])} for k, i, j in _PAIRS]
        values.append([c for c in coeffs if c["value"] != 0.0])
    return {
        "system": "butcher",
        "d": 2,
        "n": 2,
        "times": [float(t) for t in np.linspace(0.0, 1.0, n_points)],
        "values": values,
    }


def make(workload: str, seed: int, job: int, out: Path) -> dict:
    """Write the input files of one job into ``out``; returns their paths."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), job])
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    if workload in ("certify", "calculus"):
        files["form"] = out / "form.json"
        files["form"].write_text(json.dumps(ONE_FORM))
    if workload == "certify":
        times, pts = random_walk(rng, SIZES["certify"]["integrate_N"])
        files["path"] = out / "path.csv"
        write_csv(files["path"], times, pts)
        step = SIZES["certify"]["integrate_N"] // SIZES["certify"]["certify_N"]
        files["coarse"] = out / "coarse.csv"
        write_csv(files["coarse"], times[::step], pts[::step])
    elif workload == "calculus":
        times, pts = random_walk(rng, SIZES["calculus"]["N"])
        files["path"] = out / "path.csv"
        write_csv(files["path"], times, pts)
        files["func"] = out / "func.json"
        files["func"].write_text(json.dumps(CUBIC))
    elif workload == "extend":
        times, pts = random_walk(rng, SIZES["extend"]["word_N"])
        files["path"] = out / "path.csv"
        write_csv(files["path"], times, pts)
        files["forest"] = out / "forest.json"
        files["forest"].write_text(
            json.dumps(forest_character_path(rng, SIZES["extend"]["forest_N"]))
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {k: str(v) for k, v in files.items()}
