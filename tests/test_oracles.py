import math

import numpy as np
import pytest

from cocycle import oracles, trees


def test_linear_path_word_integrals_factorial():
    pts = np.array([[0.0], [1.0]])
    for k in (1, 2, 3):
        val, tol = oracles.quadrature_iterated_integral(pts, (1,) * k, mesh=256)
        assert abs(val - 1.0 / np.prod(range(1, k + 1))) <= tol


def test_constant_path_integral_zero():
    pts = np.array([[1.0, 1.0], [1.0, 1.0]])
    # constant path: refine grid still zero
    val, tol = oracles.quadrature_iterated_integral(pts + 0.0, (1, 2), mesh=128)
    assert abs(val) < 1e-14


def test_l_path_double_integrals():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    v12, t12 = oracles.quadrature_iterated_integral(pts, (1, 2), mesh=256)
    v21, t21 = oracles.quadrature_iterated_integral(pts, (2, 1), mesh=256)
    assert abs(v12 - 1.0) <= t12
    assert abs(v21) <= t21


def test_self_convergence_order():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(5, 2)).cumsum(axis=0)
    coarse = oracles.quadrature_iterated_integral(pts, (1, 2, 1), mesh=128)
    fine = oracles.quadrature_iterated_integral(pts, (1, 2, 1), mesh=512)
    assert abs(coarse[0] - fine[0]) <= coarse[1]
    assert fine[1] < coarse[1]


def test_mesh_floor_rejected():
    with pytest.raises(ValueError):
        oracles.quadrature_iterated_integral(np.array([[0.0], [1.0]]), (1,), mesh=16)


def test_riemann_one_form_constant_map():
    A = np.zeros((1, 2))
    A[0, 0] = 2.0
    pts = np.array([[0.0, 0.0], [0.3, 0.8], [1.1, 1.0]])
    val, tol = oracles.riemann_one_form_integral([A], pts, mesh=128)
    assert np.isclose(val[0], 2.0 * 1.1, atol=1e-12)


def test_riemann_one_form_linear():
    # p(z)(v) = z v on R: integral of x dx over x_t = t is 1/2
    arrays = [np.zeros((1, 1)), np.ones((1, 1, 1))]
    pts = np.array([[0.0], [1.0]])
    val, tol = oracles.riemann_one_form_integral(arrays, pts, mesh=256)
    assert abs(val[0] - 0.5) <= tol


def test_riemann_one_form_square_law():
    # f(x) = x^2 dx integrates to x^3/3 on monotone data
    arrays = [np.zeros((1, 1)), np.zeros((1, 1, 1)), 2.0 * np.ones((1, 1, 1, 1))]
    pts = np.array([[0.0], [0.4], [1.0]])
    val, tol = oracles.riemann_one_form_integral(arrays, pts, mesh=512)
    assert abs(val[0] - 1.0 / 3.0) <= tol


def test_branched_ladder_integral():
    ladder = (trees.tree(1, (trees.tree(1),)),)
    val, tol = oracles.quadrature_branched_integral(np.array([[0.0], [1.0]]), ladder, mesh=256)
    assert abs(val - 0.5) <= tol


def test_branched_forest_is_product_of_trees():
    pts = np.array([[0.0], [0.7], [1.3]])
    dot = (trees.tree(1),)
    pair = (trees.tree(1), trees.tree(1))
    v_dot, _ = oracles.quadrature_branched_integral(pts, dot, mesh=128)
    v_pair, tol = oracles.quadrature_branched_integral(pts, pair, mesh=128)
    assert abs(v_pair - v_dot**2) <= tol + 1e-12


def test_exhaustive_pvariation_small_cases():
    # two points: the single increment
    assert np.isclose(
        oracles.exhaustive_pvariation(lambda i, j: abs(j - i), 2, 2.0), 1.0
    )
    # monotone, p = 1: telescoping
    xs = np.array([0.0, 0.5, 0.6, 1.4])
    dist = lambda i, j: xs[j] - xs[i]
    assert np.isclose(oracles.exhaustive_pvariation(dist, 4, 1.0), 1.4)


def test_exhaustive_pvariation_size_limit():
    with pytest.raises(ValueError):
        oracles.exhaustive_pvariation(lambda i, j: 1.0, 15, 2.0)


def test_one_form_layout_pinned_in_two_dimensions():
    # an integrand whose direction and derivative slots differ: p(z) v = z2 v1
    from cocycle.one_forms import LipFunction, RoughOneForm
    from cocycle.paths import control_from_pvar, signature_piecewise_linear
    from cocycle.sewing import sew

    A1 = np.zeros((1, 2, 2))
    A1[0, 0, 1] = 1.0  # output 0, direction v1, derivative slot z2
    arrays = [np.zeros((1, 2)), A1]
    ts = np.linspace(0.0, 1.0, 65)
    pts = np.stack([ts, ts**2], axis=1)
    val, tol = oracles.riemann_one_form_integral(arrays, pts, mesh=1024, times=ts)
    exact = 1.0 / 3.0  # int_0^1 t^2 dt
    assert abs(val[0] - exact) <= tol
    g = signature_piecewise_linear(pts, 2, times=ts)
    f = LipFunction.from_polynomial(arrays, gamma=2.0)
    form = RoughOneForm(f, g, p=2.0)
    res = sew(form, g, control_from_pvar(g, 2.0), theta=form.theta, check=False)
    assert abs(res.values[-1][0] - val[0]) <= 1e-4 + 4 * tol


# -- the per-point loops the vectorised oracles are pinned against ---------------


def _refine_loop(points, times, mesh):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    times = np.asarray(times, dtype=float)
    nseg = pts.shape[0] - 1
    sub = max(1, int(np.ceil(mesh / nseg)))
    ts, xs = [times[0]], [pts[0]]
    for k in range(nseg):
        for i in range(1, sub + 1):
            frac = i / sub
            ts.append(times[k] + frac * (times[k + 1] - times[k]))
            xs.append(pts[k] + frac * (pts[k + 1] - pts[k]))
    return np.array(ts), np.stack(xs)


def _riemann_loop(deriv_arrays, points, mesh, times):
    pts = np.asarray(points, dtype=float)
    m = deriv_arrays[0].shape[0]

    def value_at(x):
        out = np.zeros((m, pts.shape[1]))
        for l, arr in enumerate(deriv_arrays):
            term = arr
            for _ in range(l):
                term = np.tensordot(term, x, axes=([term.ndim - 1], [0]))
            out += term / math.factorial(l)
        return out

    vals = []
    for mm in (mesh, 2 * mesh):
        _, xs = _refine_loop(pts, times, mm)
        acc = np.zeros(m)
        for i in range(xs.shape[0] - 1):
            acc = acc + value_at(xs[i]) @ (xs[i + 1] - xs[i])
        vals.append(acc)
    return 2.0 * vals[1] - vals[0], 4.0 * float(np.abs(vals[1] - vals[0]).max()) + 1e-15


@pytest.mark.parametrize("N, mesh", [(2, 64), (9, 100), (200, 256), (200, 4 * 199)])
def test_vectorised_oracles_equal_the_per_point_loops(N, mesh):
    rng = np.random.default_rng(N)
    pts = rng.normal(size=(N, 2)).cumsum(axis=0) / np.sqrt(N)
    times = np.sort(rng.uniform(0.0, 3.0, N))
    for got, want in zip(oracles._refine(pts, times, mesh), _refine_loop(pts, times, mesh)):
        assert got.tobytes() == want.tobytes()
    arrays = [rng.normal(size=(2, 2)), rng.normal(size=(2, 2, 2)), rng.normal(size=(2, 2, 2, 2))]
    arrays[2][arrays[2] > 0.8] = 0.0
    value, tol = oracles.riemann_one_form_integral(arrays, pts, mesh=mesh, times=times)
    ref_value, ref_tol = _riemann_loop(arrays, pts, mesh, times)
    assert value.tobytes() == ref_value.tobytes()
    assert tol.hex() == ref_tol.hex()


def test_oracles_import_nothing_from_the_library():
    # the references must stay independent of the kernels they check
    import ast
    import pathlib

    source = pathlib.Path(oracles.__file__).read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("cocycle"), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "cocycle" for a in node.names), ast.dump(node)
