import numpy as np
import pytest

from cocycle.algebra import tensor_system
from cocycle.one_forms import (
    AlgebraTarget,
    CertificateError,
    LipFunction,
    RoughOneForm,
    constant_form_from_alpha,
    polynomial_trace_increment,
)
from cocycle.paths import control_from_pvar, signature_piecewise_linear, uniform_control
from cocycle.sewing import point_removal, refine_and_compare, sew, zeta
from conftest import tensor_max_dev


def cubic_one_form():
    arrs = [np.zeros((1,) + (1,) * (l + 1)) for l in range(4)]
    arrs[0][0, 0] = 0.2
    arrs[1][0, 0, 0] = 1.0
    arrs[2][(0,) + (0,) * 3] = -0.6
    arrs[3][(0,) + (0,) * 4] = 2.4
    return arrs


@pytest.fixture
def smooth_path(rng):
    ts = np.linspace(0, 1, 33)
    xs = np.sin(ts) * 0.8 + ts
    return signature_piecewise_linear(xs[:, None], 4, times=ts)


def test_zeta_values():
    assert np.isclose(zeta(2.0), np.pi**2 / 6, atol=1e-6)
    with pytest.raises(ValueError):
        zeta(1.0)


def test_constant_form_sews_to_one_step(rng):
    pts = rng.normal(size=(17, 2)).cumsum(axis=0) * 0.3
    g = signature_piecewise_linear(pts, 2, times=np.linspace(0, 1, 17))
    om = control_from_pvar(g, 1.0)
    s2 = tensor_system("nilpotent", 2, 2)
    form = constant_form_from_alpha(g.times, g.system, AlgebraTarget(s2), lambda x: x)
    for schedule in ("ltr", "omega"):
        res = sew(form, g, om, theta=2.0, schedule=schedule)
        dev = (res.value(0, 16) - form.eval(0, g.values[0], g.increment(0, 16))).norm()
        assert dev < 1e-13
        assert res.local_estimate(0, 16) < 1e-13


def test_frozen_path_integrates_to_unit(rng):
    g = signature_piecewise_linear(np.ones((8, 2)) * 0.3, 2, times=np.arange(8.0))
    om = uniform_control(g.times)
    s2 = tensor_system("nilpotent", 2, 2)
    form = constant_form_from_alpha(g.times, g.system, AlgebraTarget(s2), lambda x: x)
    res = sew(form, g, om, theta=2.0)
    assert tensor_max_dev(res.values[-1], s2.unit()) == 0.0
    assert res.certificate is not None


def test_young_threshold_refused(smooth_path):
    om = control_from_pvar(smooth_path, 1.0)
    form = RoughOneForm(
        LipFunction.from_polynomial(cubic_one_form(), gamma=4.0), smooth_path, p=4.0
    )
    with pytest.raises(CertificateError, match="Young"):
        sew(form, smooth_path, om, theta=1.0)


def test_certificate_gate_and_override(smooth_path):
    om = control_from_pvar(smooth_path, 1.0)
    form = RoughOneForm(
        LipFunction.from_polynomial(cubic_one_form(), gamma=4.0), smooth_path, p=4.0
    )
    res = sew(form, smooth_path, om, theta=form.theta)
    assert res.certificate is not None and res.certificate.ok
    res2 = sew(form, smooth_path, om, theta=form.theta, check=False)
    assert res2.certificate is None
    assert np.allclose(res.values[-1], res2.values[-1])


def test_full_stack_polynomial_matches_closed_form(smooth_path):
    form = RoughOneForm(
        LipFunction.from_polynomial(cubic_one_form(), gamma=4.0), smooth_path, p=4.0
    )
    om = control_from_pvar(smooth_path, 1.0)
    res = sew(form, smooth_path, om, theta=form.theta, check=False)
    f = form.f
    N = len(smooth_path)
    for t in (N // 3, N - 1):
        closed = polynomial_trace_increment(f, smooth_path, 0, t)
        assert np.abs(res.values[t] - closed).max() < 1e-12


def test_schedules_sew_one_integral(smooth_path):
    # the integral is the left fold under either schedule; omega adds the control's removal budget
    form = RoughOneForm(
        LipFunction.from_polynomial(cubic_one_form(), gamma=2.0), smooth_path, p=2.0
    )
    om = control_from_pvar(smooth_path, 2.0)
    ltr = sew(form, smooth_path, om, theta=form.theta, schedule="ltr", check=False)
    omega = sew(form, smooth_path, om, theta=form.theta, schedule="omega", check=False)
    assert ltr.prefixes.tobytes() == omega.prefixes.tobytes()
    assert (ltr.removal_order, ltr.removal_bound) == ([], 0.0)
    assert (omega.removal_order, omega.removal_bound) == point_removal(om, form.theta, len(smooth_path))
    with pytest.raises(ValueError, match="unknown schedule 'dyadic'"):
        sew(form, smooth_path, om, theta=form.theta, schedule="dyadic", check=False)


def test_omega_schedule_bookkeeping(smooth_path):
    form = RoughOneForm(
        LipFunction.from_polynomial(cubic_one_form(), gamma=2.0), smooth_path, p=2.0
    )
    om = control_from_pvar(smooth_path, 2.0)
    res = sew(form, smooth_path, om, theta=form.theta, schedule="omega", check=False)
    assert len(res.removal_order) == len(smooth_path) - 2
    assert sorted(res.removal_order) == list(range(1, len(smooth_path) - 1))
    assert 0.0 < res.removal_bound <= res.zeta_bound() + 1e-12


def test_multiplicative_family(smooth_path, rng):
    form = RoughOneForm(
        LipFunction.from_polynomial(cubic_one_form(), gamma=2.0), smooth_path, p=2.0
    )
    om = control_from_pvar(smooth_path, 2.0)
    res = sew(form, smooth_path, om, theta=form.theta, check=False)
    N = len(smooth_path)
    for _ in range(40):
        s, u, t = sorted(rng.choice(N, size=3, replace=False))
        combined = res.target.mul(res.value(s, u), res.value(u, t))
        assert np.abs(combined - res.value(s, t)).max() < 1e-11
    assert np.abs(res.value(4, 4)).max() == 0.0


def test_local_estimate_monotone_in_window(smooth_path):
    form = RoughOneForm(
        LipFunction.from_polynomial(cubic_one_form(), gamma=2.0), smooth_path, p=2.0
    )
    om = control_from_pvar(smooth_path, 2.0)
    res = sew(form, smooth_path, om, theta=form.theta, check=False)
    wide = res.local_estimate(0, 32)
    narrow = res.local_estimate(8, 16)
    assert narrow <= wide * 1.5 + 1e-12  # same-center shrink: roughly monotone
    assert res.local_slope() >= form.theta - 0.1


def test_continuity_in_the_one_form(smooth_path):
    # perturbing the form by eps moves the integral by at most C eps
    base = RoughOneForm(
        LipFunction.from_polynomial(cubic_one_form(), gamma=2.0), smooth_path, p=2.0
    )
    om = control_from_pvar(smooth_path, 2.0)
    res0 = sew(base, smooth_path, om, theta=base.theta, check=False)
    constants = []
    for eps in (1e-3, 1e-5):
        arrs = cubic_one_form()
        arrs[1][0, 0, 0] += eps
        pert = RoughOneForm(
            LipFunction.from_polynomial(arrs, gamma=2.0), smooth_path, p=2.0
        )
        res1 = sew(pert, smooth_path, om, theta=base.theta, check=False)
        gap = np.abs(res1.values[-1] - res0.values[-1]).max()
        constants.append(gap / eps)
    assert 0.0 < constants[1] < 10.0 * constants[0] + 1.0


def test_refine_and_compare(smooth_path):
    form = RoughOneForm(
        LipFunction.from_polynomial(cubic_one_form(), gamma=2.0), smooth_path, p=2.0
    )
    om = control_from_pvar(smooth_path, 2.0)
    coarse = smooth_path.restrict(range(0, 33, 8))
    rep = refine_and_compare(form, smooth_path, coarse, om, form.theta)
    assert len(rep.deviations) >= 2
    assert rep.deviations[-1] <= rep.deviations[0]
    assert rep.decays_at_least(form.theta - 1.0 - 0.1)
    # identical grids: zero deviations
    rep0 = refine_and_compare(form, smooth_path, smooth_path, om, form.theta)
    assert all(d < 1e-13 for d in rep0.deviations)


def test_refine_rejects_non_nested(smooth_path):
    form = RoughOneForm(
        LipFunction.from_polynomial(cubic_one_form(), gamma=2.0), smooth_path, p=2.0
    )
    om = control_from_pvar(smooth_path, 2.0)
    other = signature_piecewise_linear(
        np.linspace(0, 1, 5)[:, None], 4, times=np.linspace(0, 1, 5) + 0.0001
    )
    with pytest.raises(ValueError, match="nested"):
        refine_and_compare(form, smooth_path, other, om, form.theta)


def test_constant_form_zero_at_all_refinements(rng):
    pts = rng.normal(size=(17, 2)).cumsum(axis=0) * 0.3
    g = signature_piecewise_linear(pts, 2, times=np.linspace(0, 1, 17))
    om = control_from_pvar(g, 1.0)
    s2 = tensor_system("nilpotent", 2, 2)
    form = constant_form_from_alpha(g.times, g.system, AlgebraTarget(s2), lambda x: x)
    coarse = g.restrict(range(0, 17, 8))
    rep = refine_and_compare(form, g, coarse, om, 2.0)
    assert all(d < 1e-13 for d in rep.deviations)
