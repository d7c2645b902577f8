"""The dominated-path calculus read in rows, pinned to its per-row definition.

``calculus_arrays`` runs the benchmark-style calculus chain on the 12-point
golden walk and on a 60-point walk; ``tests/golden/calculus_walk.npz`` holds
its arrays.  Regenerate the file (only on purpose) with

    PYTHONPATH=src python tests/test_dominated_rows.py
"""

import json
import math
import pathlib

import numpy as np
import pytest

from cocycle import serialize
from cocycle.algebra import GradedTensor, tensor_system
from cocycle.dominated import (
    DominatedPath,
    compose,
    coordinate_coupling,
    enhance,
    iterated_integral,
    product,
    rebase,
    rough_integrate,
)
from cocycle.maps import _degree_tuples, _double_block_matrices, double_integral
from cocycle.one_forms import FormSum, LipFunction, RoughOneForm
from cocycle.paths import control_from_pvar, signature_piecewise_linear

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
CALCULUS_GOLDEN = GOLDEN_DIR / "calculus_walk.npz"
P, THETA = 2.0, 1.5


def walk60():
    rng = np.random.default_rng(60)
    steps = rng.normal(size=(59, 2)) / np.sqrt(60)
    return np.linspace(0.0, 1.0, 60), np.vstack([np.zeros((1, 2)), steps.cumsum(axis=0)])


def calculus_chain(times, pts) -> dict:
    """x, y, iterated integral, product, composition, enhancement, rebase and rough integral."""
    f = serialize.one_form_from_obj(json.loads((GOLDEN_DIR / "form2.json").read_text()))
    func = serialize.function_from_obj(json.loads((GOLDEN_DIR / "func.json").read_text()))
    g = signature_piecewise_linear(pts, 2, times=times)
    omega = control_from_pvar(g, P)
    x = coordinate_coupling(g, omega, THETA, P)
    form = RoughOneForm(f, g, P)
    y = DominatedPath.from_form(g, form, omega, form.theta, P, check=False)
    direct = iterated_integral(x, x, schedule="ltr", check=False)
    prod = product(x, x, schedule="ltr", check=False)
    comp = compose(y, func, schedule="ltr", check=False)
    enh = enhance(x, schedule="ltr")
    lifted = enh.as_sampled_path()
    outer_base = coordinate_coupling(lifted, control_from_pvar(lifted, P), THETA, P)
    outer = iterated_integral(outer_base, outer_base, schedule="ltr", check=False)
    rebased = rebase(outer, enh, schedule="ltr")
    rough = rough_integrate(f, g, P, schedule="ltr")
    out = {
        "x": x.trace,
        "y": y.trace,
        "direct": direct.trace,
        "product": prod.trace,
        "compose": comp.trace,
        "outer": outer.trace,
        "rebased": rebased.trace,
        "rough_level1": rough.as_sampled_path().levels[1],
    }
    for k, level in enumerate(lifted.levels):
        out[f"enhance_level{k}"] = level
    return out


def calculus_arrays() -> dict:
    walk = serialize.read_csv_path((GOLDEN_DIR / "walk.csv").read_text())
    out = {}
    for name, (times, pts) in (("walk", walk), ("walk60", walk60())):
        out.update({f"{name}_{k}": v for k, v in calculus_chain(times, pts).items()})
    return out


def test_calculus_chain_matches_golden_arrays():
    with np.load(CALCULUS_GOLDEN) as golden:
        want = dict(golden)
    got = calculus_arrays()
    assert sorted(got) == sorted(want)
    for name, arr in got.items():
        assert np.array_equal(arr, want[name]), name


def test_calculus_chain_builds_no_tensor_per_grid_point(tensor_inits):
    # the chain reads stacked levels: the tensors it builds do not grow with the grid
    built = []
    for times, pts in (serialize.read_csv_path((GOLDEN_DIR / "walk.csv").read_text()), walk60()):
        start = len(tensor_inits)
        calculus_chain(times, pts)
        built.append(len(tensor_inits) - start)
    assert built[0] == built[1]


def test_calculus_chain_reads_forms_in_rows(eval_calls):
    times, pts = serialize.read_csv_path((GOLDEN_DIR / "walk.csv").read_text())
    calculus_chain(times, pts)
    assert eval_calls == []


# -- the per-row definitions: one closure per form, evaluated one row at a time ----------


def ref_matrices(d, degrees) -> list:
    """Per time s: ``{k: matrix of v_k -> beta_s(g_s, v_k)}``, one probe per (s, k)."""
    return [{k: d.form.probe_matrix(d.base, s, s, k) for k in degrees} for s in range(len(d.base))]


def ref_apply_matrices(mats, c, dim):
    out = np.zeros(dim)
    for k, M in mats.items():
        out = out + M @ c.levels[k]
    return out


def ref_pair_kernel(split, mats1, mats2):
    m1 = next(iter(mats1.values())).shape[0]
    m2 = next(iter(mats2.values())).shape[0]
    out = np.zeros((m1, m2))
    for (j1, j2), arr in split.blocks.items():
        M1, M2 = mats1.get(j1), mats2.get(j2)
        if M1 is None or M2 is None:
            continue
        out += M1 @ arr @ M2.T
    return out


def ref_coordinate(base):
    dom = base.system

    def fn(s, a, v):
        return np.array(dom.mul(a, v - v.scalar() * dom.unit()).levels[1])

    return fn


def ref_iterated(base, trace1, mats1, mats2, dim2):
    def fn(s, a, v):
        c = base.recenter(s, a, v)
        lead = np.outer(trace1[s] - trace1[0], ref_apply_matrices(mats2[s], c, dim2))
        return (lead + ref_pair_kernel(double_integral(c), mats1[s], mats2[s])).reshape(-1)

    return fn


def ref_product(d1, d2):
    """The three summands and their sum."""
    base, hp = d1.base, d1.base.system.n
    mats1, mats2 = ref_matrices(d1, range(1, hp + 1)), ref_matrices(d2, range(1, hp + 1))

    def eta1(s, c):
        return np.outer(ref_apply_matrices(mats1[s], c, d1.dim), d2.trace[s]).reshape(-1)

    def eta2(s, c):
        return np.outer(d1.trace[s], ref_apply_matrices(mats2[s], c, d2.dim)).reshape(-1)

    def eta3(s, c):
        out = np.zeros((d1.dim, d2.dim))
        for k1 in range(1, hp):
            for k2 in range(1, hp - k1 + 1):
                arr = base.system.block_tuple_tensor((k1, k2), c)
                out += mats1[s][k1] @ arr @ mats2[s][k2].T
        return out.reshape(-1)

    summands = [lambda s, a, v, f=f: f(s, base.recenter(s, a, v)) for f in (eta1, eta2, eta3)]

    def fn(s, a, v):
        c = base.recenter(s, a, v)
        return eta1(s, c) + eta2(s, c) + eta3(s, c)

    return summands, fn


def ref_compose(d, f):
    base, hp = d.base, d.base.system.n
    mats = ref_matrices(d, range(1, hp + 1))
    wdim = int(np.prod(f.out_shape))
    scale = f.lip_bound(float(np.abs(d.trace).max()))

    def fn(s, a, v):
        c = base.recenter(s, a, v)
        out = np.zeros(wdim)
        for l in range(1, hp + 1):
            D = f.deriv(l, d.trace[s]).reshape(wdim, -1) / scale
            block = None
            for ks in _degree_tuples(l, hp):
                cur = base.system.block_tuple_tensor(tuple(ks), c)
                for i, k in enumerate(ks):
                    cur = np.moveaxis(np.tensordot(mats[s][k], cur, axes=([1], [i])), 0, i)
                block = cur if block is None else block + cur
            out = out + (D @ block.reshape(-1)) / math.factorial(l)
        return scale * out

    return fn


def ref_ladder(system, B, hp):
    dbl = {k: _double_block_matrices(system, k) for k in range(2, system.n + 1)}
    levels = {1: B}
    for lvl in range(2, hp + 1):
        cur = {}
        for k in range(1, system.n + 1):
            acc = None
            for (j1, j2), M in dbl.get(k, {}).items():
                prev, low = levels[lvl - 1].get(j1), B.get(j2)
                if prev is None or low is None:
                    continue
                term = np.kron(prev, low) @ M
                acc = term if acc is None else acc + term
            if acc is not None:
                cur[k] = acc
        levels[lvl] = cur
    return levels


def ref_apply_ladder(out, ladder, c):
    for lvl, per_deg in ladder.items():
        for k, M in per_deg.items():
            out.levels[lvl][:] += M @ c.levels[k]
    return out


def ref_enhance(d):
    """The enhancement form, and its ladders per time."""
    base, hp = d.base, d.base.system.n
    enh_system = tensor_system("nilpotent", d.dim, hp)
    ladders = [ref_ladder(base.system, mats, hp) for mats in ref_matrices(d, range(1, hp + 1))]

    def fn(s, a, v):
        c = base.recenter(s, a, v)
        return ref_apply_ladder(v.scalar() * enh_system.unit(), ladders[s], c)

    return fn, ladders


def ref_rebase(outer_fn, enh, ladders):
    base = enh.source.base

    def fn(s, a, v):
        c = base.recenter(s, a, v)
        w = ref_apply_ladder(enh.system.zero(), ladders[s], c)
        return outer_fn(s, enh.values[s], w)

    return fn


def rows_by_reference(fn, path, s, a, v):
    return [fn(int(i), path.values[j], GradedTensor(path.system, [l[r] for l in v])) for r, (i, j) in enumerate(zip(s, a))]


def row_bytes(rows):
    """Bytes of each row: flat rows as they are, algebra rows level by level."""
    return [b"".join(l.tobytes() for l in x.levels) if isinstance(x, GradedTensor) else np.asarray(x).tobytes()
            for x in rows]


@pytest.mark.parametrize("level, p", [(2, 2.0), (2, 2.5), (3, 2.5)])
def test_dominated_forms_read_rows(level, p):
    # every calculus form, read in rows, equals its per-row closure bit for bit:
    # on the one-steps of the grid, and on directions at a point other than the base time
    rng = np.random.default_rng(7)
    N = 14
    times, pts = np.linspace(0.0, 1.0, N), rng.normal(size=(N, 2)).cumsum(axis=0) / np.sqrt(N)
    g = signature_piecewise_linear(pts, level, times=times)
    omega = control_from_pvar(g, p)
    f = serialize.one_form_from_obj(json.loads((GOLDEN_DIR / "form2.json").read_text()))
    x = coordinate_coupling(g, omega, THETA, p)
    y = DominatedPath.from_form(g, RoughOneForm(f, g, p), omega, THETA, p)
    square = LipFunction.from_polynomial(
        [np.zeros(2), rng.normal(size=(2, 2)), np.stack([np.eye(2), 0.5 * np.ones((2, 2))])], gamma=4.0
    )
    cubic = serialize.function_from_obj(json.loads((GOLDEN_DIR / "func.json").read_text()))
    degrees = range(1, level + 1)

    forms = {  # name: (form, per-row closure)
        "coordinate": (x.form, ref_coordinate(g)),
        "scaled": ((0.7 * x).form, lambda s, a, v: 0.7 * ref_coordinate(g)(s, a, v)),
        "sum": (FormSum([x.form, (0.7 * x).form]),
                lambda s, a, v: ref_coordinate(g)(s, a, v) + 0.7 * ref_coordinate(g)(s, a, v)),
    }
    for name, (d1, d2) in {"xy": (x, y), "yx": (y, x), "xx": (x, x)}.items():
        forms[f"iterate_{name}"] = (
            iterated_integral(d1, d2).form,
            ref_iterated(g, d1.trace, ref_matrices(d1, degrees), ref_matrices(d2, degrees), d2.dim),
        )
        prod = product(d1, d2)
        summands, fn = ref_product(d1, d2)
        forms[f"product_{name}"] = (prod.form, fn)
        for i, (piece, ref) in enumerate(zip(prod.form.summands, summands)):
            forms[f"product_{name}_summand{i}"] = (piece, ref)
    forms["compose_x"] = (compose(x, square).form, ref_compose(x, square))
    forms["compose_y"] = (compose(y, cubic).form, ref_compose(y, cubic))
    enh = enhance(x)
    enh_fn, ladders = ref_enhance(x)
    lifted = enh.as_sampled_path()
    outer_base = coordinate_coupling(lifted, control_from_pvar(lifted, p), THETA, p)
    outer = iterated_integral(outer_base, outer_base)
    outer_mats = ref_matrices(outer_base, degrees)
    outer_fn = ref_iterated(lifted, outer_base.trace, outer_mats, outer_mats, outer_base.dim)
    forms["rebase"] = (rebase(outer, enh).form, ref_rebase(outer_fn, enh, ladders))

    first, last = np.triu_indices(N, 1)  # every window
    elsewhere = np.arange(N)
    directions = [rng.normal(size=(N, g.system.dim(k))) for k in range(level + 1)]
    directions[0] = rng.choice([0.0, 0.5, 1.0], size=(N, 1))
    for name, (form, ref) in forms.items():
        for s, a, v in ((first, first, g.increments(first, last)), (elsewhere, (elsewhere + 5) % N, directions)):
            got = form.eval_rows(g, s, a, v)
            assert row_bytes(got) == row_bytes(rows_by_reference(ref, g, s, a, v)), name
    # the enhancement form, through the one-step values of its sewing
    got = enh.result.one_steps(first, last)
    got = [GradedTensor(enh.system, [l[r] for l in got]) for r in range(len(first))]
    assert row_bytes(got) == row_bytes(rows_by_reference(enh_fn, g, first, first, g.increments(first, last)))


if __name__ == "__main__":
    np.savez(CALCULUS_GOLDEN, **calculus_arrays())
