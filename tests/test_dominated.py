import numpy as np
import pytest

from cocycle import oracles, trees
from cocycle.algebra import tensor_system
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
from cocycle.one_forms import CertificateError, LipFunction, RoughOneForm, slowly_varying_certificate
from cocycle.paths import (
    control_from_pvar,
    path_from_increments,
    signature_piecewise_linear,
    vector_p_variation,
)
from conftest import path_max_dev, tensor_max_dev


def line_base(N=33, level=2, p=2.0):
    ts = np.linspace(0.0, 1.0, N)
    g = signature_piecewise_linear(ts[:, None], level, times=ts)
    return g, control_from_pvar(g, p)


def wiggly_base(rng, N=17, d=2, level=2, p=2.0):
    pts = rng.normal(size=(N, d)).cumsum(axis=0) * 0.4
    ts = np.linspace(0.0, 1.0, N)
    g = signature_piecewise_linear(pts, level, times=ts)
    return pts, g, control_from_pvar(g, p)


def linear_form(d=1, m=1):
    A0 = np.zeros((m, d))
    A1 = np.zeros((m, d, d))
    for i in range(min(m, d)):
        A1[i, i, i] = 1.0
    return LipFunction.from_polynomial([A0, A1])


class TestDominatedPath:
    def test_coordinate_coupling_trace(self, rng):
        pts, g, om = wiggly_base(rng)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        assert np.abs(d.trace - (pts - pts[0])).max() < 1e-12
        assert d.remainder_quotient() < 1e-12  # the coupling is exact

    def test_linearity_of_couplings(self, rng):
        pts, g, om = wiggly_base(rng)
        d1 = coordinate_coupling(g, om, theta=1.5, p=2.0)
        d2 = 2.5 * d1
        both = d1 + d2
        assert np.abs(both.trace - 3.5 * d1.trace).max() < 1e-11
        with pytest.raises(ValueError):
            other, omo = line_base()
            d1 + coordinate_coupling(other, omo, 1.5, 2.0)

    def test_eq_33_34_bounds(self, rng):
        pts, g, om = wiggly_base(rng, N=12)
        form = RoughOneForm(linear_form(d=2, m=2), g, p=2.0)
        d = DominatedPath.from_form(g, form, om, form.theta, 2.0)
        report = slowly_varying_certificate(d.form, g, om, d.theta, d.p)
        # remainder bound: finite quotient against the certificate norm
        assert d.remainder_quotient() <= 10.0 * max(report.beta_norm, 1.0)
        # p-variation of the trace controlled by the operator norm
        assert vector_p_variation(d.trace, 2.0) <= 10.0 * max(report.beta_norm, 1.0)


class TestIteratedIntegral:
    def test_line_against_itself(self):
        g, om = line_base()
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        it = iterated_integral(d, d)
        assert abs(it.trace[-1][0] - 0.5) < 1e-12

    def test_matches_word_oracle(self, rng):
        pts, g, om = wiggly_base(rng, N=9)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        it = iterated_integral(d, d)
        final = (it.trace[-1] - it.trace[0]).reshape(2, 2)
        for a in (1, 2):
            for b in (1, 2):
                val, tol = oracles.quadrature_iterated_integral(pts, (a, b), mesh=2048)
                assert abs(final[a - 1, b - 1] - val) < 1e-8 + 4 * tol

    def test_zero_form_gives_zero(self, rng):
        pts, g, om = wiggly_base(rng, N=9)
        d1 = coordinate_coupling(g, om, theta=1.5, p=2.0)
        d0 = 0.0 * d1
        it = iterated_integral(d1, d0)
        assert np.abs(it.trace).max() < 1e-14

    def test_increment_decomposition(self, rng):
        # window increment = product part + genuine double-integral part
        pts, g, om = wiggly_base(rng, N=9)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        it = iterated_integral(d, d)
        s, t = 3, 7
        window_pts = pts[s : t + 1]
        inner, tol = oracles.quadrature_iterated_integral(window_pts, (1, 2), mesh=2048)
        lead = np.outer(pts[s] - pts[0], pts[t] - pts[s])
        inc = (it.trace[t] - it.trace[s]).reshape(2, 2)
        assert abs(inc[0, 1] - lead[0, 1] - inner) < 1e-8 + 4 * tol

    def test_butcher_level_three_unsupported(self, rng):
        b3 = tensor_system("butcher", 1, 3)
        incs = []
        for _ in range(4):
            v = b3.zero()
            v.levels[0][0] = 1.0
            v.levels[1][0] = rng.normal() * 0.3
            incs.append(v)
        from conftest import random_character

        incs = [random_character(b3, rng, scale=0.3) for _ in range(4)]
        g = path_from_increments(b3, np.arange(5.0), incs)
        om = control_from_pvar(g, 3.5)
        d = coordinate_coupling(g, om, theta=1.2, p=3.5)
        with pytest.raises(ValueError, match="level 2"):
            iterated_integral(d, d)

    def test_operator_norm_bound_stable(self, rng):
        norms = []
        for N in (9, 17):
            ts = np.linspace(0, 1, N)
            xs = ts + 0.2 * np.sin(3 * ts)
            g = signature_piecewise_linear(xs[:, None], 2, times=ts)
            om = control_from_pvar(g, 2.0)
            d = coordinate_coupling(g, om, theta=1.5, p=2.0)
            it = iterated_integral(d, d)
            rep_in = slowly_varying_certificate(d.form, g, om, 1.5, 2.0)
            rep_out = slowly_varying_certificate(it.form, g, it.omega, it.theta, 2.0)
            norms.append(rep_out.beta_norm / max(rep_in.beta_norm**2, 1e-12))
        assert 0.25 < norms[1] / norms[0] < 4.0


class TestProduct:
    def test_trace_is_pointwise_tensor(self, rng):
        pts, g, om = wiggly_base(rng, N=11)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        pr = product(d, d)
        expect = np.einsum("ni,nj->nij", d.trace, d.trace).reshape(len(g), -1)
        assert np.abs(pr.trace - expect).max() < 1e-11

    def test_unit_scalar_factor(self, rng):
        # multiplying by the constant path 1 returns the original trace
        pts, g, om = wiggly_base(rng, N=9)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        one = DominatedPath.from_form(g, _zero_form(g, 1), om, 1.5, 2.0, h0=np.ones(1))
        pr = product(d, one)
        assert np.abs(pr.trace - d.trace).max() < 1e-12

    def test_integration_by_parts_dichotomy(self, rng):
        # word system: sym iterated integral equals the product;
        # forest system on branched data: a measured nonzero defect
        g, om = line_base(N=17)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        it = iterated_integral(d, d)
        pr = product(d, d)
        sym = 2.0 * (it.trace - it.trace[0])[:, 0]
        direct = (pr.trace - pr.trace[0])[:, 0]
        assert np.abs(sym - direct).max() < 1e-9

        lam = 0.4
        b1 = tensor_system("butcher", 1, 2)
        dot = (trees.tree(1),)
        ladd = (trees.tree(1, (trees.tree(1),)),)
        pair = (trees.tree(1), trees.tree(1))
        ts = np.linspace(0, 1, 17)
        incs = []
        for j in range(16):
            dt = ts[j + 1] - ts[j]
            v = b1.zero()
            v.levels[0][0] = 1.0
            v.levels[1][b1.forest_position(1, dot)] = dt
            v.levels[2][b1.forest_position(2, pair)] = dt * dt
            v.levels[2][b1.forest_position(2, ladd)] = dt * dt / 2 + lam * dt
            incs.append(v)
        gb = path_from_increments(b1, ts, incs)
        omb = control_from_pvar(gb, 2.0)
        db = coordinate_coupling(gb, omb, theta=1.5, p=2.0)
        itb = iterated_integral(db, db)
        prb = product(db, db)
        symb = 2.0 * (itb.trace - itb.trace[0])[:, 0]
        directb = (prb.trace - prb.trace[0])[:, 0]
        defect = np.abs(symb - directb).max()
        assert defect > 0.1  # the Ito-like bracket shows up
        assert abs(defect - 2.0 * lam) < 1e-9  # 2 int bracket = 2 lam T

    def test_summands_not_slowly_varying(self, rng):
        # the three pieces of the product kernel individually have growing
        # Holder quotients on rough data while the sum stays bounded
        quot = {0: [], 1: [], 2: [], "sum": []}
        for N in (9, 17, 33):
            ts = np.linspace(0, 1, N)
            lvl = np.sqrt(np.diff(ts))
            steps = np.concatenate([[0.0], np.cumsum(lvl * (-1) ** np.arange(N - 1))])
            g = signature_piecewise_linear(steps[:, None], 2, times=ts)
            om = control_from_pvar(g, 2.0)
            d = coordinate_coupling(g, om, theta=1.5, p=2.0)
            pr = product(d, d)
            for i, piece in enumerate(pr.form.summands):
                rep = slowly_varying_certificate(piece, g, pr.omega, pr.theta, 2.0)
                quot[i].append(max(rep.quotients.values()))
            rep = slowly_varying_certificate(pr.form, g, pr.omega, pr.theta, 2.0)
            quot["sum"].append(max(rep.quotients.values()))
        assert quot[0][-1] > 1.5 * quot[0][0] or quot[1][-1] > 1.5 * quot[1][0]
        assert quot["sum"][-1] < 4.0 * max(quot["sum"][0], 1e-6)


def _zero_form(g, dim):
    from cocycle.one_forms import FlatTarget, constant_form_from_alpha

    return constant_form_from_alpha(g.times, g.system, FlatTarget(dim), lambda l: np.zeros(l[0].shape[:-1] + (dim,)))


class TestCompose:
    def test_linear_function_exact(self, rng):
        pts, g, om = wiggly_base(rng, N=9)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        A = rng.normal(size=(3, 2))
        f = LipFunction.from_polynomial([np.zeros(3), A], gamma=3.0)
        out = compose(d, f)
        expect = d.trace @ A.T
        assert np.abs(out.trace - expect).max() < 1e-11

    def test_square_function(self, rng):
        g, om = line_base(N=17)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        f = LipFunction.from_polynomial(
            [np.zeros(1), np.zeros((1, 1)), 2.0 * np.ones((1, 1, 1))], gamma=3.0
        )
        out = compose(d, f)
        assert np.abs(out.trace[:, 0] - d.trace[:, 0] ** 2).max() < 1e-9

    def test_gamma_gate(self, rng):
        g, om = line_base(N=9)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        f = LipFunction.from_polynomial([np.zeros(1), np.ones((1, 1))], gamma=1.5)
        with pytest.raises(CertificateError, match="gamma"):
            compose(d, f)

    def test_theta_hat_formula(self, rng):
        g, om = line_base(N=9)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        f = LipFunction.from_polynomial(
            [np.zeros(1), np.zeros((1, 1)), 2.0 * np.ones((1, 1, 1))], gamma=2.5
        )
        out = compose(d, f)
        assert np.isclose(out.theta, min(1.5, 2.5 / 2.0, 3.0 / 2.0))


class TestEnhanceAndRebase:
    def test_enhancement_reproduces_signature(self, rng):
        pts, g, om = wiggly_base(rng, N=11)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        enh = enhance(d)
        truth = signature_piecewise_linear(pts - pts[0], 2, times=g.times)
        assert path_max_dev(enh.as_sampled_path(), truth) < 1e-9
        assert enh.multiplicativity_residual() < 1e-10

    def test_constant_trace_enhances_to_unit(self, rng):
        pts, g, om = wiggly_base(rng, N=9)
        d0 = DominatedPath.from_form(g, _zero_form(g, 2), om, 1.5, 2.0)
        enh = enhance(d0)
        for v in enh.values:
            assert tensor_max_dev(v, enh.system.unit()) < 1e-14

    def test_triangular_structure(self, rng):
        pts, g, om = wiggly_base(rng, N=7)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        enh = enhance(d)
        # level 2 must vanish on degree-1 directions at every time: key absent
        assert 1 not in enh.level_matrices[2]
        assert enh.level_matrices[2][2].shape[0] == len(g)

    def test_window_ladder_factorisation(self, rng):
        # B_{s,t}(g_t, .) = Gamma_{s,t} B_{t,t}(g_t, .) on basis directions
        pts, g, om = wiggly_base(rng, N=7)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        enh = enhance(d)
        s, t = 1, 5
        win = enh.window_matrices(s, t)
        gamma_st = enh.pair_value(s, t)
        m = enh.system.d
        for k in range(1, g.system.n + 1):
            for pos in range(g.system.dim(k)):
                direction = np.zeros(g.system.dim(k))
                direction[pos] = 1.0
                stacked = enh.system.zero()
                for lvl in range(1, enh.system.n + 1):
                    M = enh.level_matrices[lvl].get(k)
                    if M is not None:
                        stacked.levels[lvl][:] = M[t] @ direction
                lhs = enh.system.mul(gamma_st, stacked)
                rhs = enh.system.zero()
                rhs.levels[0][0] = stacked.levels[0][0]
                for lvl in range(1, enh.system.n + 1):
                    M = win[lvl].get(k)
                    if M is not None:
                        rhs.levels[lvl][:] = M @ direction
                # compare levels >= 1 (window form drops the scalar slot)
                dev = max(
                    float(np.abs(a - b).max())
                    for a, b in zip(lhs.levels[1:], rhs.levels[1:])
                )
                assert dev < 1e-11

    def test_rebase_level_one_coupling(self, rng):
        pts, g, om = wiggly_base(rng, N=9)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        enh = enhance(d)
        gamma_path = enh.as_sampled_path()
        om_g = control_from_pvar(gamma_path, 2.0)
        outer = coordinate_coupling(gamma_path, om_g, theta=1.5, p=2.0)
        reb = rebase(outer, enh)
        assert np.abs(reb.trace - (d.trace - d.trace[0])).max() < 1e-10

    def test_rebase_iterated_integral(self, rng):
        pts, g, om = wiggly_base(rng, N=9)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        enh = enhance(d)
        gamma_path = enh.as_sampled_path()
        om_g = control_from_pvar(gamma_path, 2.0)
        outer_base = coordinate_coupling(gamma_path, om_g, theta=1.5, p=2.0)
        outer = iterated_integral(outer_base, outer_base)
        reb = rebase(outer, enh)
        direct = iterated_integral(d, d)
        assert np.abs(reb.trace - direct.trace).max() < 1e-8

    def test_rebase_rejects_wrong_base(self, rng):
        pts, g, om = wiggly_base(rng, N=9)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        enh = enhance(d)
        other, omo = line_base(N=9)
        outer = coordinate_coupling(other, omo, theta=1.5, p=2.0)
        with pytest.raises(ValueError, match="enhancement"):
            rebase(outer, enh)


class TestRoughIntegrate:
    def test_known_values(self):
        ts = np.linspace(0, 1, 33)
        g = signature_piecewise_linear(ts[:, None], 4, times=ts)
        Y = rough_integrate(linear_form(), g, p=2.0)
        assert abs(Y.values[-1].levels[1][0] - 0.5) < 1e-12
        assert abs(Y.values[-1].levels[2][0] - 0.125) < 1e-12

    def test_constant_one_form(self, rng):
        pts, g, om = wiggly_base(rng, N=9)
        A = rng.normal(size=(2, 2))
        f = LipFunction.from_polynomial([A], in_dim=2, gamma=2.0)
        Y = rough_integrate(f, g, p=2.0)
        expect = (pts - pts[0]) @ A.T
        got = np.stack([v.levels[1] for v in Y.values])
        assert np.abs(got - expect).max() < 1e-11

    def test_identity_reproduces_extension_levels(self, rng):
        pts, g, om = wiggly_base(rng, N=9)
        ident = LipFunction.from_polynomial(
            [np.zeros((2, 2)) + np.eye(2)], in_dim=2, gamma=2.0
        )
        Y = rough_integrate(ident, g, p=2.0)
        for v, gv in zip(Y.values, g.values):
            assert np.abs(v.levels[1] - (gv.levels[1] - g.values[0].levels[1])).max() < 1e-11

    def test_gamma_gate(self):
        ts = np.linspace(0, 1, 9)
        g = signature_piecewise_linear(ts[:, None], 3, times=ts)
        f = LipFunction.from_polynomial([np.zeros((1, 1)), np.ones((1, 1, 1))], gamma=1.5)
        with pytest.raises(CertificateError):
            rough_integrate(f, g, p=3.0)

    def test_almost_multiplicative_slope(self):
        ts = np.linspace(0, 1, 65)
        xs = ts + 0.25 * np.sin(2 * np.pi * ts)
        g = signature_piecewise_linear(xs[:, None], 2, times=ts)
        f = LipFunction.from_polynomial(
            [np.zeros((1, 1)), np.zeros((1, 1, 1)), 2.0 * np.ones((1, 1, 1, 1))],
            gamma=2.0,
        )
        Y = rough_integrate(f, g, p=2.0)
        assert Y.result.local_slope() >= Y.source.theta - 0.1

    def test_butcher_step2_model(self):
        lam = 0.37
        b1 = tensor_system("butcher", 1, 2)
        dot = (trees.tree(1),)
        ladd = (trees.tree(1, (trees.tree(1),)),)
        pair = (trees.tree(1), trees.tree(1))
        ts = np.linspace(0, 1, 33)
        incs = []
        for j in range(32):
            dt = ts[j + 1] - ts[j]
            v = b1.zero()
            v.levels[0][0] = 1.0
            v.levels[1][b1.forest_position(1, dot)] = dt
            v.levels[2][b1.forest_position(2, pair)] = dt * dt
            v.levels[2][b1.forest_position(2, ladd)] = dt * dt / 2 + lam * dt
            incs.append(v)
        gb = path_from_increments(b1, ts, incs)
        Y = rough_integrate(linear_form(), gb, p=2.0)
        assert abs(Y.values[-1].levels[1][0] - (0.5 + lam)) < 1e-12


def test_form_sum_traces_add(rng):
    from cocycle.one_forms import FormSum

    pts, g, om = wiggly_base(rng, N=9)
    d1 = coordinate_coupling(g, om, theta=1.5, p=2.0)
    d2 = 0.7 * d1
    summed = DominatedPath.from_form(
        g, FormSum([d1.form, d2.form]), om, 1.5, 2.0
    )
    expect = (d1.trace - d1.trace[0]) + (d2.trace - d2.trace[0])
    assert np.abs(summed.trace - expect).max() < 1e-11


def test_identity_rough_integral_matches_extension_levels(rng):
    # with the identity one-form the enhancement reproduces the group levels
    from cocycle.one_forms import LipFunction

    ts = np.linspace(0, 1, 17)
    xs = ts + 0.3 * np.sin(3 * ts)
    g = signature_piecewise_linear(xs[:, None], 2, times=ts)
    ident = LipFunction.from_polynomial([np.ones((1, 1))], in_dim=1, gamma=2.0)
    Y = rough_integrate(ident, g, p=2.0)
    for v, gv in zip(Y.values, g.values):
        base = g.values[0]
        inc = g.system.mul(g.system.inverse(base), gv)
        assert np.abs(v.levels[1] - inc.levels[1]).max() < 1e-11
        assert np.abs(v.levels[2] - inc.levels[2]).max() < 1e-11


def test_nested_rebase_two_levels(rng):
    # gamma over g -> enhancement Gamma; delta := level-1 coupling over Gamma
    # (the same trace) -> enhancement Gamma2; a coupling over Gamma2 rebased
    # twice lands back over g with the same trace
    pts, g, om = wiggly_base(rng, N=9)
    gamma = coordinate_coupling(g, om, theta=1.5, p=2.0)
    enh1 = enhance(gamma)
    g1 = enh1.as_sampled_path()
    om1 = control_from_pvar(g1, 2.0)
    delta = coordinate_coupling(g1, om1, theta=1.5, p=2.0)
    enh2 = enhance(delta)
    g2 = enh2.as_sampled_path()
    om2 = control_from_pvar(g2, 2.0)
    zeta = coordinate_coupling(g2, om2, theta=1.5, p=2.0)
    once = rebase(zeta, enh2)     # now dominated by g1
    twice = rebase(once, enh1)    # now dominated by g
    expect = gamma.trace - gamma.trace[0]
    assert np.abs(twice.trace - expect).max() < 1e-7


def test_compose_and_rebase_norm_bounds_stable(rng):
    from cocycle.one_forms import slowly_varying_certificate as cert

    ratios_compose, ratios_rebase = [], []
    for N in (9, 17):
        ts = np.linspace(0, 1, N)
        xs = ts + 0.25 * np.sin(3 * ts)
        g = signature_piecewise_linear(xs[:, None], 2, times=ts)
        om = control_from_pvar(g, 2.0)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        rep_in = cert(d.form, g, om, 1.5, 2.0)
        f = LipFunction.from_polynomial(
            [np.zeros(1), np.zeros((1, 1)), 2.0 * np.ones((1, 1, 1))], gamma=3.0
        )
        comp = compose(d, f)
        rep_comp = cert(comp.form, g, comp.omega, comp.theta, 2.0)
        bound = max(rep_in.beta_norm, rep_in.beta_norm**2)
        ratios_compose.append(rep_comp.beta_norm / bound)
        enh = enhance(d)
        gp = enh.as_sampled_path()
        outer = coordinate_coupling(gp, control_from_pvar(gp, 2.0), theta=1.5, p=2.0)
        reb = rebase(outer, enh)
        rep_out = cert(outer.form, gp, outer.omega, outer.theta, 2.0)
        rep_reb = cert(reb.form, g, reb.omega, reb.theta, 2.0)
        bound = rep_out.beta_norm * max(rep_in.beta_norm, rep_in.beta_norm**2)
        ratios_rebase.append(rep_reb.beta_norm / bound)
    assert 0.25 < ratios_compose[1] / ratios_compose[0] < 4.0
    assert 0.25 < ratios_rebase[1] / ratios_rebase[0] < 4.0


def test_base_matrices_belong_to_their_path(rng, monkeypatch):
    # every path shares one id: a cache keyed by id(path) would hand the
    # second path the first path's matrices
    import cocycle.one_forms
    from cocycle.one_forms import FlatTarget, TimeVaryingOneForm

    class SecondLevelForm(TimeVaryingOneForm):
        """beta_s(a, v) = pi_2(a v)."""

        def rows(self, s, a, v):
            return self.domain.mul_levels(a, v)[2]

    monkeypatch.setattr(cocycle.one_forms, "id", lambda _: 0, raising=False)
    _, g1, om1 = wiggly_base(rng)
    _, g2, om2 = wiggly_base(rng)
    dom = g1.system
    form = SecondLevelForm(g1.times, dom, FlatTarget(dom.dim(2)))
    s = 5
    for g in (g1, g2):
        want = np.kron(g.values[s].levels[1].reshape(-1, 1), np.eye(dom.dim(1)))
        assert np.allclose(form.probe_matrix(g, s, s, 1), want, atol=1e-14)
    d1 = DominatedPath.from_form(g1, form, om1, 1.5, 2.0)
    d2 = DominatedPath.from_form(g2, form, om2, 1.5, 2.0)
    for d in (d1, d2):
        want = np.kron(d.base.values[s].levels[1].reshape(-1, 1), np.eye(dom.dim(1)))
        assert np.allclose(d.base_matrices([1])[1][s], want, atol=1e-14)
