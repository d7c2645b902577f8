import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle import oracles
from cocycle.algebra import tensor_system
from cocycle.paths import (
    SampledGroupPath,
    chen_residual,
    control_from_pvar,
    grid_triples,
    p_variation,
    path_from_increments,
    signature_of_segment,
    signature_piecewise_linear,
    uniform_control,
    vector_p_variation,
)
from conftest import random_character, tensor_max_dev


def test_segment_signature_values():
    sig = signature_of_segment([0.0, 0.0], 3)
    assert tensor_max_dev(sig, sig.system.unit()) == 0.0
    sig = signature_of_segment([1.0], 2)
    assert np.allclose([sig.levels[k][0] for k in range(3)], [1.0, 1.0, 0.5])
    val, tol = oracles.quadrature_iterated_integral(np.array([[0.0], [1.0]]), (1, 1))
    assert abs(sig.levels[2][0] - val) <= tol


def test_segment_level_two_symmetric(rng):
    v = rng.normal(size=3)
    sig = signature_of_segment(v, 2)
    block = sig.levels[2].reshape(3, 3)
    assert np.abs(block - block.T).max() < 1e-14


def test_piecewise_linear_single_segment_matches():
    path = signature_piecewise_linear(np.array([[0.0, 0.0], [0.7, -0.4]]), 3)
    assert tensor_max_dev(path.values[-1], signature_of_segment([0.7, -0.4], 3)) < 1e-15


def test_back_and_forth_is_unit():
    path = signature_piecewise_linear(np.array([[0.0], [1.0], [0.0]]), 2)
    assert tensor_max_dev(path.values[-1], path.system.unit()) < 1e-15


def test_l_path_area_words():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    path = signature_piecewise_linear(pts, 2)
    sig = path.values[-1]
    v12, t12 = oracles.quadrature_iterated_integral(pts, (1, 2))
    v21, t21 = oracles.quadrature_iterated_integral(pts, (2, 1))
    assert abs(sig.levels[2][1] - v12) <= t12 and np.isclose(sig.levels[2][1], 1.0)
    assert abs(sig.levels[2][2] - v21) <= t21 and abs(sig.levels[2][2]) < 1e-14


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        signature_piecewise_linear(np.zeros((1, 2)), 2)
    with pytest.raises(ValueError):
        SampledGroupPath(tensor_system("nilpotent", 1, 1), [0.0, 0.0], [None, None])


def test_chen_identity_on_grid(rng):
    pts = rng.normal(size=(14, 2)).cumsum(axis=0) * 0.5
    path = signature_piecewise_linear(pts, 3)
    assert chen_residual(path) < 1e-12
    for v in path.values:
        assert path.system.grouplike_check(v, 1e-12)


def test_chen_batched_matches_loop(rng):
    pts = rng.normal(size=(9, 2)).cumsum(axis=0) * 0.5
    path = signature_piecewise_linear(pts, 2)
    batched = chen_residual(path)
    # reference: one triple at a time
    worst = 0.0
    s = path.system
    N = len(path)
    for a in range(N):
        for b in range(a + 1, N):
            for c in range(b + 1, N):
                lhs = s.mul(path.increment(a, b), path.increment(b, c))
                worst = max(worst, tensor_max_dev(lhs, path.increment(a, c)))
    assert abs(batched - worst) < 1e-13


@pytest.mark.parametrize("N", [0, 2, 3, 9, 40])
@pytest.mark.parametrize("cap", [None, 1, 100, 10**6])
def test_grid_triples_is_the_strided_triple_list(N, cap):
    # the full lexicographic list, then every stride-th triple
    full = [(s, u, t) for s in range(N) for u in range(s + 1, N) for t in range(u + 1, N)]
    if cap is not None and len(full) > cap:
        full = full[:: len(full) // cap + 1]
    assert list(grid_triples(N, cap)) == full


def test_butcher_path_from_increments(rng):
    b2 = tensor_system("butcher", 2, 2)
    incs = [random_character(b2, rng, scale=0.4) for _ in range(6)]
    path = path_from_increments(b2, np.arange(7.0), incs)
    assert chen_residual(path) < 1e-12
    for v in path.values:
        assert b2.grouplike_check(v, 1e-10)


def test_homogeneous_norm_values():
    s2 = tensor_system("nilpotent", 1, 2)
    assert s2.homogeneous_norm(s2.unit()) == 0.0
    sig = signature_of_segment([1.0], 2)
    assert np.isclose(s2.homogeneous_norm(sig), 1.0 + 0.5**0.5)
    # degree-one homogeneity under dilation
    c = 3.7
    assert np.isclose(
        s2.homogeneous_norm(s2.dilate(sig, c)), c * s2.homogeneous_norm(sig)
    )


def test_pvar_constant_path():
    path = signature_piecewise_linear(np.array([[0.0], [0.0 + 1e-300], [2e-300]]), 2)
    assert p_variation(path, 2.0) < 1e-250


def test_pvar_monotone_total_variation(rng):
    xs = np.cumsum(np.abs(rng.normal(size=10)))
    path = signature_piecewise_linear(xs[:, None], 1)
    assert np.isclose(p_variation(path, 1.0), xs[-1] - xs[0])


def test_pvar_window_monotone(rng):
    pts = rng.normal(size=(10, 1))
    path = signature_piecewise_linear(pts, 2)
    inner = p_variation(path, 2.0, window=(2, 6))
    outer = p_variation(path, 2.0, window=(1, 8))
    assert inner <= outer + 1e-14
    assert p_variation(path, 2.0, window=(4, 4)) == 0.0


def test_pvar_dp_matches_exhaustive(rng):
    for _ in range(10):
        pts = rng.normal(size=(8, 1))
        path = signature_piecewise_linear(pts, 2)
        dist = path.increment_norms()
        for p in (1.0, 1.4, 2.3):
            assert np.isclose(
                p_variation(path, p),
                oracles.exhaustive_pvariation(lambda i, j: dist[i, j], 8, p),
                atol=1e-12,
            )


def test_pvar_dilation_equivariance(rng):
    pts = rng.normal(size=(9, 2))
    path = signature_piecewise_linear(pts, 2)
    c = 2.3
    assert np.isclose(
        p_variation(path.dilate(c), 2.0), c * p_variation(path, 2.0), rtol=1e-12
    )


def test_control_superadditive(rng):
    pts = rng.normal(size=(12, 2))
    path = signature_piecewise_linear(pts, 2)
    ctrl = control_from_pvar(path, 2.0)
    assert ctrl.superadditivity_residual(samples=150) > -1e-11
    assert ctrl(3, 3) == 0.0
    total = uniform_control(path.times)
    both = ctrl + total
    assert np.isclose(both(1, 5), ctrl(1, 5) + total(1, 5))


def test_control_additive_for_monotone_p1(rng):
    xs = np.cumsum(np.abs(rng.normal(size=8)))
    path = signature_piecewise_linear(xs[:, None], 1)
    ctrl = control_from_pvar(path, 1.0)
    assert np.isclose(ctrl(0, 7), ctrl(0, 3) + ctrl(3, 7))


def test_vector_p_variation_monotone():
    xs = np.linspace(0.0, 2.0, 9)
    assert np.isclose(vector_p_variation(xs, 1.0), 2.0)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_pvar_dp_exhaustive_property(data):
    incs = data.draw(
        st.lists(st.floats(-1, 1), min_size=5, max_size=7)
    )
    p = data.draw(st.floats(1.0, 3.0))
    pts = np.concatenate([[0.0], np.cumsum(incs)])
    path = signature_piecewise_linear(pts[:, None], 1)
    dist = path.increment_norms()
    dp = p_variation(path, p)
    brute = oracles.exhaustive_pvariation(lambda i, j: dist[i, j], len(pts), p)
    assert np.isclose(dp, brute, atol=1e-11)


def test_subgrid_detection(rng):
    pts = rng.normal(size=(9, 1))
    fine = signature_piecewise_linear(pts, 2)
    coarse = fine.restrict(range(0, 9, 2))
    assert coarse.subgrid_of(fine)
    other = signature_piecewise_linear(pts, 2, times=np.arange(9) + 0.3)
    assert not coarse.subgrid_of(other)
