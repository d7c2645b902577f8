import itertools

import numpy as np
import pytest

from cocycle.algebra import tensor_system
from cocycle.one_forms import (
    AlgebraTarget,
    BranchedRoughOneForm,
    CertificateError,
    FlatTarget,
    LevelRaisingForm,
    LipFunction,
    PolynomialCocyclicForm,
    RoughOneForm,
    TimeVaryingRoughOneForm,
    constant_form_from_alpha,
    holder_remainder_residual,
    identity_form,
    integrable_condition_check,
    polynomial_trace_increment,
    slowly_varying_certificate,
    strict_floor,
)
from cocycle.paths import (
    control_from_pvar,
    signature_piecewise_linear,
    uniform_control,
)
from conftest import random_grouplike, tensor_max_dev


def linear_one_form(d=1, m=1):
    """p(z)(v) = z . v pattern: a degree-one polynomial one-form."""
    A0 = np.zeros((m, d))
    A1 = np.zeros((m, d, d))
    for i in range(min(m, d)):
        A1[i, i, i] = 1.0
    return LipFunction.from_polynomial([A0, A1])


def square_one_form():
    """f(x) dx with f(x) = x^2 on R."""
    arrays = [np.zeros((1, 1)), np.zeros((1, 1, 1)), 2.0 * np.ones((1, 1, 1, 1))]
    return LipFunction.from_polynomial(arrays, gamma=3.0)


class TestLipFunction:
    def test_strict_floor(self):
        assert strict_floor(2.0) == 1
        assert strict_floor(2.5) == 2
        assert strict_floor(0.3) == 0

    def test_polynomial_taylor_shift(self):
        f = square_one_form()
        x = np.array([0.7])
        assert np.isclose(f.deriv(0, x)[0, 0], 0.49)
        assert np.isclose(f.deriv(1, x)[0, 0, 0], 1.4)
        assert np.isclose(f.deriv(2, x)[0, 0, 0, 0], 2.0)

    def test_symmetry_validated(self):
        bad = np.zeros((1, 2, 2))
        bad[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            LipFunction.from_polynomial([np.zeros((1,)), np.zeros((1, 2)), bad])

    def test_holder_remainder_finite(self, rng):
        f = square_one_form()
        samples = rng.normal(size=(6, 1))
        assert holder_remainder_residual(f, samples) < 10.0


class TestConstantForms:
    def test_identity_form_is_second_argument(self, rng):
        s = tensor_system("nilpotent", 2, 3)
        form = identity_form(np.arange(3.0), s)
        a, b = random_grouplike(s, rng), random_grouplike(s, rng)
        assert tensor_max_dev(form.eval(0, a, b), b) < 1e-14

    def test_truncation_form_cocycle_and_identities(self, rng):
        s = tensor_system("nilpotent", 2, 3)
        s2 = tensor_system("nilpotent", 2, 2)
        form = constant_form_from_alpha(
            np.arange(3.0), s, AlgebraTarget(s2), lambda l: l[:3],
            probes=[random_grouplike(s, rng)],
        )
        worst = 0.0
        for _ in range(20):
            a, b, c = (random_grouplike(s, rng) for _ in range(3))
            worst = max(worst, form.cocycle_residual(0, a, b, c))
        assert worst < 1e-12
        a, b = random_grouplike(s, rng), random_grouplike(s, rng)
        u = s.unit()
        # beta(a, 1) = 1
        assert (form.eval(0, a, u) - s2.unit()).norm() < 1e-13
        # beta(a,b)^{-1} = beta(ab, b^{-1})
        lhs = s2.inverse(form.eval(0, a, b))
        rhs = form.eval(0, s.mul(a, b), s.inverse(b))
        assert (lhs - rhs).norm() < 1e-12
        # determined by the value at the unit
        lhs = form.eval(0, a, b)
        rhs = s2.mul(
            s2.inverse(form.eval(0, u, a)), form.eval(0, u, s.mul(a, b))
        )
        assert (lhs - rhs).norm() < 1e-12

    def test_alpha_probe_rejection(self, rng):
        s = tensor_system("nilpotent", 2, 2)
        bad_alpha = lambda l: [2.0 * x for x in l]  # scalar part 2: leaves the group
        with pytest.raises(CertificateError):
            constant_form_from_alpha(
                np.arange(2.0), s, AlgebraTarget(s), bad_alpha,
                probes=[random_grouplike(s, rng)],
            )

    def test_flat_target_constant_form(self, rng):
        s = tensor_system("nilpotent", 2, 2)
        proj = lambda l: l[1]
        form = constant_form_from_alpha(np.arange(2.0), s, FlatTarget(2), proj)
        a, b, c = (random_grouplike(s, rng) for _ in range(3))
        assert form.cocycle_residual(0, a, b, c) < 1e-13


class TestLevelRaisingForm:
    def test_cocycle_law(self, rng):
        pts = rng.normal(size=(6, 2)).cumsum(axis=0) * 0.5
        g = signature_piecewise_linear(pts, 2)
        form = LevelRaisingForm(g)
        worst = 0.0
        for _ in range(20):
            a, b, c = (random_grouplike(g.system, rng) for _ in range(3))
            worst = max(worst, form.cocycle_residual(2, a, b, c))
        assert worst < 1e-12

    def test_one_step_is_padded_increment(self, rng):
        pts = rng.normal(size=(5, 2)).cumsum(axis=0) * 0.5
        g = signature_piecewise_linear(pts, 2)
        form = LevelRaisingForm(g)
        for j in range(4):
            padded = g.system.embed(g.increment(j, j + 1), 3)
            assert tensor_max_dev(form.eval(j, g.values[j], g.increment(j, j + 1)), padded) < 1e-13

    def test_linear_in_direction(self, rng):
        pts = rng.normal(size=(4, 2)).cumsum(axis=0) * 0.5
        g = signature_piecewise_linear(pts, 2)
        form = LevelRaisingForm(g)
        a = random_grouplike(g.system, rng)
        v1, v2 = random_grouplike(g.system, rng), random_grouplike(g.system, rng)
        assert form.linearity_residual(1, a, v1, v2) < 1e-12


class TestPolynomialCocyclicForm:
    def test_constant_one_form_reduces_to_projection(self, rng):
        # degree-0 one-form (constant linear map): only the k-fold direct terms
        A = np.zeros((2, 2))
        A[0, 0], A[1, 1] = 1.0, -2.0
        f = LipFunction.from_polynomial([A], in_dim=2)
        dom = tensor_system("nilpotent", 2, 1)
        form = PolynomialCocyclicForm([0.0], f, 1, dom)
        a = random_grouplike(dom, rng, factors=1)
        b = random_grouplike(dom, rng, factors=1)
        out = form.eval(0, a, b)
        assert np.allclose(out.levels[1], A @ b.levels[1])

    def test_cocycle_law_at_square_level(self, rng):
        f = linear_one_form(d=2, m=1)
        dom = tensor_system("nilpotent", 2, 4)
        form = PolynomialCocyclicForm([0.0], f, 2, dom)
        worst = 0.0
        for _ in range(20):
            a, b, c = (random_grouplike(dom, rng) for _ in range(3))
            worst = max(worst, form.cocycle_residual(0, a, b, c))
        assert worst < 1e-10

    def test_value_grouplike_on_group_pairs(self, rng):
        f = linear_one_form(d=2, m=1)
        dom = tensor_system("nilpotent", 2, 4)
        form = PolynomialCocyclicForm([0.0], f, 2, dom)
        val = form.eval(0, random_grouplike(dom, rng), random_grouplike(dom, rng))
        assert form.target.system.grouplike_residual(val) < 1e-12

    def test_matches_signature_of_integral_path(self, rng):
        # P(g^{n^2}_s, g^{n^2}_{s,t}) equals the signature of y = int p(x) dx
        pts = np.sort(rng.uniform(0, 1, size=5))[:, None]
        pts = np.concatenate([[[0.0]], pts, [[1.0]]])
        f = linear_one_form(d=1, m=1)  # p(z) v = z v, so y has dy = x dx
        n = 2
        dom = tensor_system("nilpotent", 1, n * n)
        g = signature_piecewise_linear(pts, n * n)
        form = PolynomialCocyclicForm(g.times, f, n, dom)
        # y on the same grid: y_t = x_t^2 / 2 (x starts at 0)
        ys = (pts**2 / 2.0).reshape(-1, 1)
        sig_y = signature_piecewise_linear(ys, n, times=g.times)
        worst = 0.0
        for s in range(len(g) - 1):
            for t in range(s + 1, len(g)):
                lhs = form.eval(s, g.values[s], g.increment(s, t))
                worst = max(worst, tensor_max_dev(lhs, sig_y.increment(s, t)))
        # y is piecewise quadratic, its PL signature only approximates; compare
        # the exact level-1 instead and the closed-form increment
        closed = polynomial_trace_increment(f, g, 0, len(g) - 1)
        val = form.eval(0, g.values[0], g.increment(0, len(g) - 1))
        assert np.allclose(val.levels[1], closed)
        assert np.allclose(closed, (pts[-1] ** 2) / 2.0 - (pts[0] ** 2) / 2.0)

    def test_trace_level_one_half(self):
        f = linear_one_form(d=1, m=1)
        dom = tensor_system("nilpotent", 1, 4)
        g = signature_piecewise_linear(np.array([[0.0], [1.0]]), 4, times=[0.0, 1.0])
        form = PolynomialCocyclicForm(g.times, f, 2, dom)
        val = form.eval(0, g.values[0], g.increment(0, 1))
        assert np.isclose(val.levels[1][0], 0.5)

    def test_degree_mismatch_rejected(self):
        f = linear_one_form(d=2, m=1)
        dom = tensor_system("nilpotent", 3, 4)
        with pytest.raises(ValueError, match="dimension"):
            PolynomialCocyclicForm([0.0], f, 2, dom)


class TestRoughOneForm:
    def test_regularity_gate(self):
        f = linear_one_form()
        g = signature_piecewise_linear(np.array([[0.0], [1.0]]), 3)
        with pytest.raises(CertificateError):
            RoughOneForm(LipFunction.from_polynomial(
                [np.zeros((1, 1)), np.ones((1, 1, 1))], gamma=1.5), g, p=3.0)

    def test_linear_f_time_constant_after_recentering(self, rng):
        # for linear f the per-degree operator matrices are time-constant
        ts = np.linspace(0, 1, 6)
        g = signature_piecewise_linear(np.sin(ts)[:, None], 2, times=ts)
        form = RoughOneForm(linear_one_form(), g, p=2.0)
        report = slowly_varying_certificate(
            form, g, control_from_pvar(g, 2.0), form.theta, 2.0
        )
        assert max(report.quotients.values()) < 1e-12

    def test_square_f_young_route_is_the_riemann_sum(self):
        # for p in [1, 2) only the zeroth derivative enters: the sewn value
        # coincides with the independent left Riemann sum on the same grid
        from cocycle.sewing import sew

        ts = np.linspace(0, 1, 129)
        xs = ts + 0.3 * np.sin(2 * ts)
        g = signature_piecewise_linear(xs[:, None], 1, times=ts)
        f = LipFunction.from_polynomial(
            [np.zeros((1, 1)), np.zeros((1, 1, 1)), 2.0 * np.ones((1, 1, 1, 1))],
            gamma=1.0,
        )
        form = RoughOneForm(f, g, p=1.5)
        om = control_from_pvar(g, 1.5)
        res = sew(form, g, om, theta=form.theta, check=False)
        riemann = float(np.sum(xs[:-1] ** 2 * np.diff(xs)))
        assert abs(res.values[-1][0] - riemann) < 1e-12

    def test_square_f_full_stack_matches_riemann_oracle(self):
        # with the full derivative stack the sewn integral hits the continuum
        from cocycle import oracles
        from cocycle.sewing import sew

        ts = np.linspace(0, 1, 65)
        xs = ts + 0.3 * np.sin(2 * ts)
        g = signature_piecewise_linear(xs[:, None], 3, times=ts)
        form = RoughOneForm(square_one_form(), g, p=3.0)
        om = control_from_pvar(g, 3.0)
        res = sew(form, g, om, theta=form.theta, check=False)
        arrays = [np.zeros((1, 1)), np.zeros((1, 1, 1)), 2.0 * np.ones((1, 1, 1, 1))]
        val, tol = oracles.riemann_one_form_integral(arrays, xs[:, None], mesh=4096, times=ts)
        assert abs(res.values[-1][0] - val[0]) < 1e-8 + 4 * tol

    def test_slowly_varying_quotients_bounded_on_smooth_path(self):
        ts = np.linspace(0, 1, 17)
        g = signature_piecewise_linear((ts + 0.2 * ts**2)[:, None], 2, times=ts)
        form = RoughOneForm(square_one_form(), g, p=2.0)
        report = slowly_varying_certificate(form, g, control_from_pvar(g, 2.0), form.theta, 2.0)
        assert report.bounded
        assert report.M > 0


class TestTimeVaryingForms:
    def test_constant_family_matches_static(self, rng):
        ts = np.linspace(0, 1, 9)
        g = signature_piecewise_linear(ts[:, None], 2, times=ts)
        om = control_from_pvar(g, 2.0)
        f = linear_one_form()
        static = RoughOneForm(f, g, p=2.0)
        varying = TimeVaryingRoughOneForm([f] * len(g), g, 2.0, om, static.theta)
        a = random_grouplike(g.system, rng)
        b = random_grouplike(g.system, rng)
        for s in (0, 4, 7):
            assert np.allclose(varying.eval(s, a, b), static.eval(s, a, b))

    def test_time_affine_family_integrates(self):
        from cocycle.sewing import sew

        # F_s(x) dx = s * A dx against x_t = t: integral = int s dA... = 1/2
        ts = np.linspace(0, 1, 65)
        g = signature_piecewise_linear(ts[:, None], 1, times=ts)
        om = control_from_pvar(g, 1.0)
        fs = [
            LipFunction.from_polynomial([s * np.ones((1, 1))], gamma=2.0)
            for s in ts
        ]
        form = TimeVaryingRoughOneForm(fs, g, 1.0, om, theta=2.0)
        res = sew(form, g, om, theta=2.0, check=False)
        assert abs(res.values[-1][0] - 0.5) < 2e-2
        # and the compensated-regularity exponents hold
        report = form.time_variation_report()
        assert all(np.isfinite(q[0]) for q in report["worst"].values())

    def test_certificate_failure_carries_location(self):
        ts = np.linspace(0, 1, 9)
        g = signature_piecewise_linear(ts[:, None], 1, times=ts)
        om = control_from_pvar(g, 1.0)
        fs = [
            LipFunction.from_polynomial([np.array([[0.0 if s < 0.5 else 1e6]])], gamma=2.0)
            for s in ts
        ]
        form = TimeVaryingRoughOneForm(fs, g, 1.0, om, theta=2.0)
        with pytest.raises(CertificateError) as err:
            form.time_variation_report(bound=10.0)
        assert len(err.value.detail) == 3


class TestBranchedRoughForm:
    def test_matches_word_route_on_geometric_lift(self, rng):
        # a geometric path lifted into the forest system gives the same
        # integral as the word-system route
        from cocycle import trees
        from cocycle.paths import path_from_increments
        from cocycle.sewing import sew

        ts = np.linspace(0, 1, 33)
        xs = ts**2
        b1 = tensor_system("butcher", 1, 2)
        dot, ladd, pair = (trees.tree(1),), (trees.tree(1, (trees.tree(1),)),), (trees.tree(1), trees.tree(1))
        incs = []
        for j in range(32):
            dx = xs[j + 1] - xs[j]
            v = b1.zero()
            v.levels[0][0] = 1.0
            v.levels[1][b1.forest_position(1, dot)] = dx
            v.levels[2][b1.forest_position(2, pair)] = dx * dx
            v.levels[2][b1.forest_position(2, ladd)] = dx * dx / 2.0
            incs.append(v)
        gb = path_from_increments(b1, ts, incs)
        f = square_one_form()
        form = BranchedRoughOneForm(f, gb, p=2.0)
        om = control_from_pvar(gb, 2.0)
        res = sew(form, gb, om, theta=form.theta, check=False)
        # same data through the word system
        gw = signature_piecewise_linear(xs[:, None], 2, times=ts)
        fw = RoughOneForm(f, gw, p=2.0)
        resw = sew(fw, gw, control_from_pvar(gw, 2.0), fw.theta, check=False)
        assert abs(res.values[-1][0] - resw.values[-1][0]) < 1e-12


class TestCertificates:
    def test_constant_form_all_quotients_zero(self, rng):
        s = tensor_system("nilpotent", 2, 2)
        pts = rng.normal(size=(6, 2)).cumsum(axis=0) * 0.3
        g = signature_piecewise_linear(pts, 2)
        om = control_from_pvar(g, 2.0)
        proj = lambda l: l[1]
        form = constant_form_from_alpha(g.times, s, FlatTarget(2), proj)
        report = slowly_varying_certificate(form, g, om, 1.5, 2.0)
        assert max(report.quotients.values()) < 1e-13
        integ = integrable_condition_check(form, g, om, 1.5)
        assert integ.ratio < 1e-12 and integ.ok

    def test_frozen_path_passes_everything(self, rng):
        s = tensor_system("nilpotent", 2, 2)
        g = signature_piecewise_linear(np.ones((6, 2)) * 0.5, 2)
        om = uniform_control(g.times)
        form = RoughOneForm(linear_one_form(d=2, m=2), g, p=2.0)
        integ = integrable_condition_check(form, g, om, 1.5)
        assert integ.ok

    def test_bad_holder_exponent_detected_by_refinement(self):
        # a genuinely rougher-than-declared function: quotients blow up
        def deriv_fn(l, x):
            return np.abs(x).sum() ** 0.3 * np.ones((1, 1))

        f_bad = LipFunction(1.0, 1, (1, 1), deriv_fn)
        quotients = []
        for N in (9, 17, 65):
            ts = np.linspace(0.0, 1.0, N)
            g = signature_piecewise_linear(ts[:, None], 1, times=ts)
            form = RoughOneForm(f_bad, g, p=1.8)
            report = slowly_varying_certificate(
                form, g, control_from_pvar(g, 1.8), form.theta, 1.8
            )
            quotients.append(max(report.quotients.values()))
        assert quotients[2] > 2.0 * quotients[0]

    def test_good_function_quotients_stable_under_refinement(self):
        # honest gamma for [p] = 1: only the value enters, Lipschitz scale 1
        f = LipFunction.from_polynomial(
            [np.zeros((1, 1)), np.zeros((1, 1, 1)), 2.0 * np.ones((1, 1, 1, 1))],
            gamma=1.0,
        )
        quotients = []
        for N in (9, 17, 65):
            ts = np.linspace(0.0, 1.0, N)
            g = signature_piecewise_linear(ts[:, None], 1, times=ts)
            form = RoughOneForm(f, g, p=1.8)
            report = slowly_varying_certificate(
                form, g, control_from_pvar(g, 1.8), form.theta, 1.8
            )
            quotients.append(max(report.quotients.values()))
        assert quotients[2] < 2.0 * quotients[0] + 1e-12


def loop_certificate(form, g, om, theta, p):
    """Reference: M and quotients probed one basis vector and one pair at a time."""
    dom, N = g.system, len(g)

    def probes(s, a, k):
        for pos in range(dom.dim(k)):
            e = dom.zero()
            e.levels[k][pos] = 1.0
            yield form.eval(s, a, e)

    M = max(
        float(np.abs(x).sum())
        for s in range(N) for k in range(dom.n + 1) for x in probes(s, g.values[s], k)
    )
    quotients = {k: 0.0 for k in range(1, dom.n + 1)}
    for s in range(N - 1):
        for t in range(s + 1, N):
            for k in quotients:
                pairs = zip(probes(t, g.values[t], k), probes(s, g.values[t], k))
                dev = max(float(np.abs(late - early).sum()) for late, early in pairs)
                quotients[k] = max(quotients[k], dev / om(s, t) ** (theta - k / p))
    return M, quotients


def test_certificate_probes_each_own_matrix_once(monkeypatch):
    # beta_t(g_t, e) does not depend on the pair: one probe row per (t, basis vector)
    pts = np.random.default_rng(5).normal(size=(8, 2)).cumsum(axis=0) * 0.3
    g = signature_piecewise_linear(pts, 2)
    form = RoughOneForm(linear_one_form(d=2, m=2), g, p=2.0)
    om = control_from_pvar(g, 2.0)
    want = loop_certificate(form, g, om, form.theta, 2.0)
    rows = []
    evaluate = form.eval_rows

    def counting_eval_rows(path, s, a, v):
        shape = np.broadcast_shapes(np.shape(s), np.shape(a), v[0].shape[:-1])
        bs, ba = np.broadcast_to(s, shape), np.broadcast_to(a, shape)
        for i in np.ndindex(shape):
            rows.append((int(bs[i]), int(ba[i]), [np.broadcast_to(l, shape + l.shape[-1:])[i] for l in v]))
        return evaluate(path, s, a, v)

    monkeypatch.setattr(form, "eval_rows", counting_eval_rows)
    report = slowly_varying_certificate(form, g, om, form.theta, 2.0)
    assert (report.M, report.quotients) == want
    own = [
        (s, k, int(np.flatnonzero(v[k])[0]))
        for s, a, v in rows
        if a == s
        for k in range(len(v))
        if v[k].any()
    ]
    basis = sum(g.system.dim(k) for k in range(g.level + 1))
    assert len(own) == len(set(own)) == len(g) * basis
    # the rest are the early probes: one per pair and basis vector of degree >= 1
    pairs = len(g) * (len(g) - 1) // 2
    assert len(rows) - len(own) == pairs * (basis - 1)


def _recentred_forms():
    """A word, a forest and a time-varying rough form over 7-point paths."""
    from cocycle.paths import path_from_increments
    from conftest import random_character

    rng = np.random.default_rng(11)
    word = signature_piecewise_linear(rng.normal(size=(7, 2)).cumsum(axis=0) * 0.4, 3)
    quad = LipFunction.from_polynomial(
        [rng.normal(size=(2, 2)), rng.normal(size=(2, 2, 2)),
         np.broadcast_to(rng.normal(size=(2, 1, 1, 1)), (2, 2, 2, 2)).copy()],
        gamma=3.0,
    )
    b = tensor_system("butcher", 2, 3)
    forest = path_from_increments(b, np.arange(7.0), [random_character(b, rng, 0.4) for _ in range(6)])
    om = control_from_pvar(word, 2.5)
    fs = [
        LipFunction.from_polynomial([np.cos(t) * quad.deriv(0, np.zeros(2)), quad.deriv(1, np.zeros(2))])
        for t in range(len(word))
    ]
    return {
        "rough": (RoughOneForm(quad, word, p=3.2), word),
        "branched": (BranchedRoughOneForm(quad, forest, p=3.2), forest),
        "time-varying": (TimeVaryingRoughOneForm(fs, word, 2.5, om, theta=1.5), word),
    }


@pytest.mark.parametrize("name", ["rough", "branched", "time-varying"])
def test_eval_rows_equal_per_pair_eval(name):
    from cocycle.one_forms import basis_rows
    from cocycle.paths import grid_triples

    form, g = _recentred_forms()[name]
    N, dom = len(g), g.system

    def same(rows, values):
        rows = np.asarray(rows)
        assert rows.tobytes() == np.array(values).reshape(rows.shape).tobytes()

    for s in range(N - 1):  # one start index against every later end
        later = np.arange(s + 1, N)
        same(form.eval_rows(g, s, s, g.increments(s, later)),
             [form.eval(s, g.values[s], g.increment(s, t)) for t in later])
    s, u, t = np.array(list(grid_triples(N))).T  # per-row times and base points
    inc = g.increments(u, t)
    for base in (u, s):
        same(form.eval_rows(g, base, u, inc),
             [form.eval(i, g.values[j], g.increment(j, k)) for i, j, k in zip(base, u, t)])
    for k in range(dom.n + 1):  # basis probes, own and early, as stacked matrices
        e = [dom.from_levels([l[pos] for l in basis_rows(dom, k)]) for pos in range(dom.dim(k))]
        times = np.arange(N)
        same(form.probe_matrix(g, times, times, k),
             [np.stack([form.eval(i, g.values[i], v) for v in e], axis=-1) for i in times])
        same(form.probe_matrix(g, 0, times, k),
             [np.stack([form.eval(0, g.values[j], v) for v in e], axis=-1) for j in times])


def test_uncapped_integrable_triples_are_chunked():
    import tracemalloc

    pts = np.random.default_rng(2).normal(size=(60, 2)).cumsum(axis=0) * 0.1
    g = signature_piecewise_linear(pts, 2)
    form = RoughOneForm(linear_one_form(d=2, m=2), g, p=2.0)
    om = control_from_pvar(g, 2.0)
    om(0, len(g) - 1)  # the increment norms and DP rows are not the triples' memory
    tracemalloc.start()
    try:
        report = integrable_condition_check(form, g, om, form.theta, max_triples=None)  # C(60, 3) triples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.worst_triple is not None
    assert peak < 5e6  # 2.4 MB in chunks; 16 MB with all 34,220 triples in one batch


def test_mixed_smoothness_form(rng):
    # a one-form depending on a second, slower path: F_s = alpha(., h_s)
    from cocycle.one_forms import mixed_one_form
    from cocycle.sewing import sew

    ts = np.linspace(0, 1, 33)
    g = signature_piecewise_linear(ts[:, None], 1, times=ts)
    om = control_from_pvar(g, 1.0)
    hs = 0.5 * ts**2  # the slow companion path

    def alpha(h):
        return LipFunction.from_polynomial([h * np.ones((1, 1))], gamma=2.0)

    form = mixed_one_form(alpha, hs, g, 1.0, om, theta=2.0)
    res = sew(form, g, om, theta=2.0, check=False)
    # int h_t dx_t with x = t: limit t^3/6 at 1
    assert abs(res.values[-1][0] - 1.0 / 6.0) < 2e-2
    report = form.time_variation_report()
    assert all(np.isfinite(v[0]) for v in report["worst"].values())


def test_truncation_alpha_gives_level_m_increment(rng):
    # alpha = truncation: the induced constant form reads off 1_m(b)
    s = tensor_system("nilpotent", 2, 3)
    s2 = tensor_system("nilpotent", 2, 2)
    form = constant_form_from_alpha(
        np.arange(2.0), s, AlgebraTarget(s2), lambda l: l[:3]
    )
    a, b = random_grouplike(s, rng), random_grouplike(s, rng)
    assert tensor_max_dev(form.eval(0, a, b), s.truncate(b, 2)) < 1e-13


def test_time_affine_family_same_grid_exact_and_fitted_exponent():
    from cocycle.sewing import loglog_slope, sew

    ts = np.linspace(0, 1, 65)
    g = signature_piecewise_linear(ts[:, None], 1, times=ts)
    om = control_from_pvar(g, 1.0)
    fs = [LipFunction.from_polynomial([s * np.ones((1, 1))], gamma=2.0) for s in ts]
    form = TimeVaryingRoughOneForm(fs, g, 1.0, om, theta=2.0)
    res = sew(form, g, om, theta=2.0, check=False)
    # the fold equals the independently computed left sum on the same grid
    riemann = float(np.sum(ts[:-1] * np.diff(ts)))
    assert abs(res.values[-1][0] - riemann) < 1e-14
    # measured compensated-regularity exponent of the stack (l = 0)
    report = form.time_variation_report()
    xs_log, ys_log = [], []
    for s, t, l, dev, w, q in report["rows"]:
        if l == 0 and dev > 1e-13 and w > 0:
            xs_log.append(np.log(w))
            ys_log.append(np.log(dev))
    slope = loglog_slope(xs_log, ys_log)
    assert slope >= (form.theta - 1.0 / form.p) - 0.05


def test_level_raising_cocycle_on_unit_scalar_elements(rng):
    # the level-raising form is cocyclic over the whole unit-scalar group,
    # not only over grouplike elements
    from cocycle.paths import signature_piecewise_linear as spl

    pts = rng.normal(size=(5, 2)).cumsum(axis=0) * 0.5
    g = spl(pts, 2)
    form = LevelRaisingForm(g)
    s = g.system
    worst = 0.0
    for _ in range(10):
        elems = []
        for _ in range(3):
            t = s.zero()
            t.levels[0][0] = 1.0
            for k in (1, 2):
                t.levels[k][:] = rng.normal(size=s.dim(k)) * 0.5
            elems.append(t)
        worst = max(worst, form.cocycle_residual(1, *elems))
    assert worst < 1e-12


def test_polynomial_lift_level_three_cocycle(rng):
    # quadratic one-form lifted to level 3: law holds over the level-9 domain
    dom9 = tensor_system("nilpotent", 1, 9)
    arrs = [np.full((1, 1), 0.3), np.ones((1, 1, 1)), np.full((1, 1, 1, 1), 1.0)]
    f = LipFunction.from_polynomial(arrs, gamma=3.0)
    form = PolynomialCocyclicForm([0.0], f, 3, dom9)
    worst = 0.0
    for _ in range(3):
        a, b, c = (random_grouplike(dom9, rng, factors=2, scale=0.8) for _ in range(3))
        worst = max(worst, form.cocycle_residual(0, a, b, c))
    assert worst < 1e-12
    val = form.eval(
        0,
        random_grouplike(dom9, rng, factors=2),
        random_grouplike(dom9, rng, factors=2),
    )
    assert form.target.system.grouplike_residual(val) < 1e-12


def test_truncated_lift_route_sews_to_the_exact_value():
    # the level-n truncation of the lift is only approximately cocyclic, but
    # its sewn integral converges to the exact-lift value under refinement
    from cocycle.sewing import sew

    f1 = LipFunction.from_polynomial([np.zeros((1, 1)), np.ones((1, 1, 1))])
    devs = []
    for N in (33, 65):
        ts = np.linspace(0, 1, N)
        xs = ts + 0.35 * np.sin(2.5 * ts)
        g2 = signature_piecewise_linear(xs[:, None], 2, times=ts)
        g4 = signature_piecewise_linear(xs[:, None], 4, times=ts)
        om = control_from_pvar(g2, 2.0)
        truncated = PolynomialCocyclicForm(ts, f1, 2, tensor_system("nilpotent", 1, 2))
        res = sew(truncated, g2, om, theta=1.5, check=False)
        exact = PolynomialCocyclicForm(ts, f1, 2, tensor_system("nilpotent", 1, 4))
        target_val = exact.eval(0, g4.values[0], g4.increment(0, N - 1))
        devs.append(tensor_max_dev(res.values[-1], target_val))
    assert devs[1] < 0.35 * devs[0]
    assert devs[1] < 2e-4


def test_polynomial_lift_is_signature_of_integral_path(rng):
    # the lift evaluated on signature data gives the signature of the
    # integral path: level 1 matches the closed form exactly; the genuinely
    # two-dimensional level-2 block matches an independent left-sum oracle
    # (with Richardson extrapolation) for the double integral of y
    pts = rng.normal(size=(4, 2)).cumsum(axis=0) * 0.5
    pts -= pts[0]  # the group path's degree-one coordinate starts at zero
    A1 = np.zeros((2, 2, 2))
    A1[0, 0, 0], A1[0, 1, 1] = 1.0, 1.0  # p(z) v = [[z1, z2], [-z2, z1]] v
    A1[1, 0, 1], A1[1, 1, 0] = -1.0, 1.0
    f = LipFunction.from_polynomial([np.zeros((2, 2)), A1])
    dom4 = tensor_system("nilpotent", 2, 4)
    g4 = signature_piecewise_linear(pts, 4)
    form = PolynomialCocyclicForm(g4.times, f, 2, dom4)
    val = form.eval(0, g4.values[0], g4.increment(0, len(g4) - 1))
    assert form.target.system.grouplike_residual(val) < 1e-12
    closed = polynomial_trace_increment(f, g4, 0, len(g4) - 1)
    assert np.abs(val.levels[1] - closed).max() < 1e-12

    def p_of(x):
        return np.array([[x[0], x[1]], [-x[1], x[0]]])

    def oracle_level_two(mesh_per_segment):
        # exact y samples (p is linear, segments are linear), left-sum area
        nseg = len(pts) - 1
        y = np.zeros(2)
        acc = np.zeros((2, 2))
        for i in range(nseg):
            delta = (pts[i + 1] - pts[i]) / mesh_per_segment
            for k in range(mesh_per_segment):
                x = pts[i] + k * delta
                dy = (p_of(x) + 0.5 * p_of(delta)) @ delta  # exact segment piece
                acc += np.outer(y, dy)
                y = y + dy
        return acc

    c1 = oracle_level_two(512)
    c2 = oracle_level_two(1024)
    extrap = 2.0 * c2 - c1
    tol = 4.0 * float(np.abs(c2 - c1).max()) + 1e-12
    assert np.abs(val.levels[2].reshape(2, 2) - extrap).max() <= 1e-9 + tol


def _tensordot_deriv(arrays, n_out, l, x):
    """The Taylor sum of one point, one ``np.tensordot`` per contraction (reference)."""
    in_dim = x.shape[0]
    if l >= len(arrays):
        return np.zeros(arrays[0].shape + (in_dim,) * l)
    out = np.zeros_like(arrays[l])
    fact = 1.0
    for j in range(len(arrays) - l):
        term = arrays[l + j]
        for _ in range(j):
            term = np.tensordot(term, x, axes=([n_out + l], [0]))
        out = out + term / fact
        fact *= j + 1
    return out


def _symmetric(rng, shape, l):
    """A random array whose last l axes are symmetric."""
    a = rng.normal(size=shape)
    lead = len(shape) - l
    out = np.zeros_like(a)
    perms = list(itertools.permutations(range(l)))
    for perm in perms:
        out = out + a.transpose(tuple(range(lead)) + tuple(lead + i for i in perm))
    return out / len(perms)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("out_shape", [(2, 3), (1,)])
def test_deriv_rows_match_per_point_derivatives(degree, out_shape, rng):
    d = 3
    arrays = [_symmetric(rng, out_shape + (d,) * l, l) for l in range(degree + 1)]
    arrays[-1][np.abs(arrays[-1]) < 0.3] = 0.0  # zero coefficients; the pattern stays symmetric
    f = LipFunction.from_polynomial(arrays, in_dim=d)
    X = rng.normal(size=(17, d)) * 3.0
    X[0] = 0.0
    for l in range(degree + 2):  # order degree + 1 is all zeros
        rows = f.deriv_rows(l, X)
        assert rows.shape == (17,) + out_shape + (d,) * l
        for i, x in enumerate(X):
            one = f.deriv(l, x)
            assert rows[i].tobytes() == one.tobytes()
            assert one.tobytes() == _tensordot_deriv(arrays, len(out_shape), l, x).tobytes()
        if l > degree:
            assert not rows.any()


def test_deriv_rows_call_a_custom_function_once_per_row(rng):
    calls = []

    def deriv_fn(l, x):
        calls.append(x.copy())
        return np.full((1, 2) + (2,) * l, x.sum())

    f = LipFunction(2.0, 2, (1, 2), deriv_fn)
    X = rng.normal(size=(5, 2))
    rows = f.deriv_rows(1, X)
    assert len(calls) == 5 and all(np.array_equal(c, x) for c, x in zip(calls, X))
    assert all(np.all(r == x.sum()) for r, x in zip(rows, X))
    bad = LipFunction(2.0, 2, (1, 2), lambda l, x: np.zeros(3))
    with pytest.raises(ValueError, match="derivative 0 has shape"):
        bad.deriv_rows(0, X)
