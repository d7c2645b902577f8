import numpy as np
import pytest

from cocycle.algebra import tensor_system
from cocycle.extension import (
    extend_one_level,
    extend_to_level,
    lift_into_group,
    lift_norm_ratio,
    projection_residual,
)
from cocycle.one_forms import CertificateError, LevelRaisingForm
from cocycle.paths import SampledGroupPath, chen_residual, control_from_pvar, signature_piecewise_linear
from cocycle.sewing import sew
from conftest import path_max_dev, random_character, tensor_max_dev


@pytest.fixture
def zigzag(rng):
    pts = rng.normal(size=(10, 2)).cumsum(axis=0) * 0.4
    return pts, np.linspace(0.0, 1.0, 10)


def test_extension_reproduces_signatures(zigzag):
    pts, ts = zigzag
    g2 = signature_piecewise_linear(pts, 2, times=ts)
    for n in (3, 4):
        truth = signature_piecewise_linear(pts, n, times=ts)
        lifted, _ = extend_to_level(g2, n, p=1.5)
        assert path_max_dev(lifted, truth) < 1e-9


def test_extension_projects_back(zigzag):
    pts, ts = zigzag
    g2 = signature_piecewise_linear(pts, 2, times=ts)
    g4, _ = extend_to_level(g2, 4, p=1.5)
    assert projection_residual(g4, g2) < 1e-11


def test_identity_when_already_at_level(zigzag):
    pts, ts = zigzag
    g2 = signature_piecewise_linear(pts, 2, times=ts)
    same, report = extend_to_level(g2, 2, p=1.5)
    assert same is g2 and report.levels == []


def test_young_threshold_rejected(zigzag):
    pts, ts = zigzag
    g2 = signature_piecewise_linear(pts, 2, times=ts)
    with pytest.raises(CertificateError, match="Young"):
        extend_one_level(g2, p=3.2)


def test_constant_path_extends_to_constant():
    g = signature_piecewise_linear(np.ones((6, 2)), 2, times=np.arange(6.0))
    lifted = extend_one_level(g, p=1.5)
    for v in lifted.values:
        assert tensor_max_dev(v, lifted.system.unit()) < 1e-14


def test_dilation_equivariance(zigzag):
    pts, ts = zigzag
    g2 = signature_piecewise_linear(pts, 2, times=ts)
    c = 1.7
    lhs = extend_one_level(g2.dilate(c), 1.5)
    rhs = extend_one_level(g2, 1.5).dilate(c)
    assert path_max_dev(lhs, rhs) < 1e-10


def test_raw_route_projects_and_converges(zigzag):
    pts, ts = zigzag
    devs = []
    for refine in (1, 2, 4):
        newp = [pts[0]]
        newt = [ts[0]]
        for i in range(len(pts) - 1):
            for j in range(1, refine + 1):
                frac = j / refine
                newp.append(pts[i] + frac * (pts[i + 1] - pts[i]))
                newt.append(ts[i] + frac * (ts[i + 1] - ts[i]))
        g2 = signature_piecewise_linear(np.array(newp), 2, times=np.array(newt))
        truth = signature_piecewise_linear(np.array(newp), 3, times=np.array(newt))
        res = sew(LevelRaisingForm(g2), g2, control_from_pvar(g2, 1.5), theta=2.0, check=True)
        assert res.certificate.ok
        raw = SampledGroupPath(tensor_system("nilpotent", 2, 3), g2.times, res.prefixes)
        assert projection_residual(raw, g2) < 1e-12
        devs.append(path_max_dev(raw, truth))
    assert devs[1] < 0.5 * devs[0] and devs[2] < 0.5 * devs[1]


def test_commutative_case_is_exponential(rng):
    # 1-d monotone data: every level is the power of the increment over k!
    xs = np.cumsum(np.abs(rng.normal(size=7)))
    g1 = signature_piecewise_linear(xs[:, None], 1)
    g3, _ = extend_to_level(g1, 3, p=1.0)
    for i, v in enumerate(g3.values):
        dx = xs[i] - xs[0]
        assert np.isclose(v.levels[2][0], dx**2 / 2)
        assert np.isclose(v.levels[3][0], dx**3 / 6)


def test_group_membership_of_extension(zigzag):
    pts, ts = zigzag
    g2 = signature_piecewise_linear(pts, 2, times=ts)
    g4, _ = extend_to_level(g2, 4, p=1.5)
    for v in g4.values:
        assert g4.system.grouplike_check(v, 1e-10)
    assert chen_residual(g4, max_triples=200) < 1e-11


def test_pvar_ratio_reported(zigzag):
    pts, ts = zigzag
    g2 = signature_piecewise_linear(pts, 2, times=ts)
    _, report = extend_to_level(g2, 4, p=1.5)
    assert len(report.pvar_ratios) == 2
    assert all(np.isfinite(r) and r > 0 for r in report.pvar_ratios)


class TestLift:
    def test_unit_lifts_to_unit(self):
        for kind in ("nilpotent", "butcher"):
            s = tensor_system(kind, 2, 2)
            lifted = lift_into_group(s, s.unit())
            assert tensor_max_dev(lifted, lifted.system.unit()) == 0.0

    def test_word_lift_of_segment_exponential(self):
        s = tensor_system("nilpotent", 2, 2)
        v = s.zero()
        v.levels[1][:] = [0.4, -0.3]
        lifted = lift_into_group(s, s.exp(v))
        up = tensor_system("nilpotent", 2, 3)
        vv = up.zero()
        vv.levels[1][:] = [0.4, -0.3]
        assert tensor_max_dev(lifted, up.exp(vv)) < 1e-14

    def test_forest_lift_grouplike_and_projects(self, rng):
        s = tensor_system("butcher", 2, 2)
        a = random_character(s, rng)
        lifted = lift_into_group(s, a)
        assert lifted.system.grouplike_residual(lifted) < 1e-12
        assert all(
            np.allclose(x, y) for x, y in zip(lifted.levels[:3], a.levels)
        )
        assert np.isfinite(lift_norm_ratio(a))

    def test_rejects_non_grouplike(self):
        s = tensor_system("nilpotent", 2, 2)
        a = s.unit()
        a.levels[1][0] = 1.0  # 1 + e is not grouplike at level 2
        with pytest.raises(ValueError, match="grouplike"):
            lift_into_group(s, a)

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_large_grouplike_lifts_and_perturbed_is_refused(self, scale):
        s = tensor_system("nilpotent", 2, 2)
        v = s.zero()
        v.levels[1][:] = [0.8 * scale, -0.6 * scale]
        a = s.exp(v)
        assert lift_into_group(s, a).system.n == 3
        a.levels[2][1] += 1e-6 * a.norm()  # breaks the shuffle relation x1 x2 = x12 + x21
        with pytest.raises(ValueError, match="grouplike"):
            lift_into_group(s, a)


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_extension_of_large_walks(scale, rng):
    pts = rng.normal(size=(8, 2)).cumsum(axis=0) * scale
    g4, _ = extend_to_level(signature_piecewise_linear(pts, 2), 4, p=1.5)
    truth = signature_piecewise_linear(pts, 4)
    for got, want in zip(g4.levels, truth.levels):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_constant_path_pvar_ratio_is_none():
    g = signature_piecewise_linear(np.ones((3, 2)), 2)
    _, report = extend_to_level(g, 3, p=1.5)
    assert report.pvar_ratios == [None]


def test_forest_path_extension(rng):
    from cocycle.algebra import tensor_system
    from cocycle.paths import path_from_increments

    b2 = tensor_system("butcher", 2, 2)
    incs = [random_character(b2, rng, scale=0.4) for _ in range(6)]
    g = path_from_increments(b2, np.arange(7.0), incs)
    lifted = extend_one_level(g, p=2.5)
    assert lifted.system.kind == "butcher" and lifted.level == 3
    assert projection_residual(lifted, g) < 1e-12
    for v in lifted.values:
        assert lifted.system.grouplike_check(v, 1e-9)
