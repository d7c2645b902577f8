import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle import oracles
from cocycle.algebra import WordSystem, tensor_system
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


GRID_TRIPLE_CASES = [(N, cap) for cap in (None, 1, 100, 10**6) for N in (0, 2, 3, 9, 40)] + [(1000, 512)]


@pytest.mark.parametrize("N, cap", GRID_TRIPLE_CASES, ids=[f"{cap}-{N}" for N, cap in GRID_TRIPLE_CASES])
def test_grid_triples_is_the_strided_triple_list(N, cap):
    # the full lexicographic list, then every stride-th triple; walked lazily,
    # as C(1000, 3) triples do not fit in memory
    total = math.comb(N, 3)
    stride = 1 if cap is None or total <= cap else total // cap + 1
    full = itertools.islice(itertools.combinations(range(N), 3), 0, None, stride)
    assert list(grid_triples(N, cap)) == list(full)


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


def _walk_and_forest_paths(rng, N):
    word = signature_piecewise_linear(rng.normal(size=(N, 2)).cumsum(axis=0) * 0.4, 3)
    b3 = tensor_system("butcher", 2, 3)
    incs = [random_character(b3, rng, scale=0.4) for _ in range(N - 1)]
    return [word, path_from_increments(b3, np.arange(float(N)), incs)]


def _norm_table_paths(rng, N):
    """Word paths at levels 1-4 over d = 1, 2, 3 and forest paths at levels 2-3, N points each."""
    for d, n in itertools.product((1, 2, 3), (1, 2, 3, 4)):
        word = signature_piecewise_linear(rng.normal(size=(max(N, 2), d)).cumsum(axis=0) * 0.4, n)
        yield word.restrict(range(N))
    for n in (2, 3):
        b = tensor_system("butcher", 2, n)
        incs = [random_character(b, rng, scale=0.4) for _ in range(N - 1)]
        yield path_from_increments(b, np.arange(float(N)), incs)


def _off_unit(path, rng):
    """The path with degree-0 coefficients 1 +- 1e-10, which every inverse accepts."""
    scalar = 1.0 + 1e-10 * rng.choice([-1.0, 1.0], size=path.levels[0].shape)
    return SampledGroupPath(path.system, path.times, [scalar] + path.levels[1:])


def test_increment_norms_equal_pairwise_reference(rng):
    # the column-layout table has the bits of one batched increments() row per start
    for N in (1, 2, 3, 40):
        for base in _norm_table_paths(rng, N):
            for path in (base, _off_unit(base, rng)):
                ref = np.zeros((N, N))
                for i in range(N - 1):
                    rest = np.arange(i + 1, N)
                    ref[i, i + 1 :] = path.system.homogeneous_norm(path.increments(i, rest))
                assert path.increment_norms().tobytes() == ref.tobytes()
    # and of the norms of the increments taken one pair at a time
    for path in _walk_and_forest_paths(rng, 11):
        N = len(path)
        ref = np.zeros((N, N))
        for i in range(N):
            for j in range(i + 1, N):
                ref[i, j] = path.system.homogeneous_norm(path.increment(i, j))
        assert path.increment_norms().tobytes() == ref.tobytes()


def _numpy_norms(system, levels):
    """Reference homogeneous norms of row-layout levels, each level summed by numpy's own
    ``sum(axis=-1)`` of contiguous rows."""
    levels = [np.ascontiguousarray(l) for l in levels]
    if system.kind == "nilpotent":
        terms = (np.power(np.abs(levels[k]).sum(axis=-1), 1.0 / k) for k in range(1, system.n + 1))
    else:
        terms = (np.sum(np.abs(levels[k]) ** (1.0 / k), axis=-1) for k in range(1, system.n + 1))
    return sum(terms, 0.0)


@pytest.mark.parametrize("N", [1, 2, 3, 40, 97])
def test_norm_table_blocks_equal_numpy_row_sums(N, rng, monkeypatch):
    # one start row per block, uneven blocks, one block for the whole table, and the default
    # heights: every table has the bits of per-row increments summed by numpy itself
    from cocycle import paths

    heights = [lambda N, width, rest: 1, lambda N, width, rest: 7, lambda N, width, rest: N, paths._norm_block_height]
    for base in _norm_table_paths(rng, N):
        for path in (base, _off_unit(base, rng)):
            ref = np.zeros((N, N))
            for i in range(N - 1):
                ref[i, i + 1 :] = _numpy_norms(path.system, path.increments(i, np.arange(i + 1, N)))
            for height in heights:
                monkeypatch.setattr(paths, "_norm_block_height", height)
                fresh = SampledGroupPath(path.system, path.times, path.levels)
                assert fresh.increment_norms().tobytes() == ref.tobytes()


@pytest.mark.parametrize("N", [1, 5])
def test_increments_of_no_pairs_are_empty(N, rng):
    none = np.zeros(0, dtype=np.int64)
    for path in _norm_table_paths(rng, N):
        incs = path.increments(none, none)
        assert [l.shape for l in incs] == [(0, path.system.dim(k)) for k in range(path.level + 1)]
        assert path.system.homogeneous_norm(incs).shape == (0,)


@pytest.mark.parametrize("height", [1, 3, 7, None])
def test_norm_table_forms_each_pair_once(height, monkeypatch):
    # a level-1 path over d = 1 whose values x_j = j + 1 name their index, so every product
    # the table forms is read back as the pairs (i, j) it joins
    from cocycle import paths

    N = 40
    s = WordSystem(1, 1)  # not the cached system: undoing the instance patches below leaves bound methods
    path = SampledGroupPath(s, np.arange(float(N)), [np.ones((N, 1)), np.arange(1.0, N + 1.0)[:, None]])
    path.inverse_levels  # its own products are not the table's
    formed = []
    mul_columns, mul_levels = s.mul_columns, s.mul_levels

    def columns(a, cols):
        i, j = np.meshgrid(-a[1][..., 0] - 1, cols[1][0] - 1, indexing="ij")
        formed.extend(zip(i.ravel().tolist(), j.ravel().tolist()))
        return mul_columns(a, cols)

    def levels(a, b):
        i, j = np.broadcast_arrays(-a[1][..., 0] - 1, b[1][..., 0] - 1)
        formed.extend(zip(i.ravel().tolist(), j.ravel().tolist()))
        return mul_levels(a, b)

    monkeypatch.setattr(s, "mul_columns", columns)
    monkeypatch.setattr(s, "mul_levels", levels)
    if height is not None:
        monkeypatch.setattr(paths, "_norm_block_height", lambda N, width, rest: height)
    path.increment_norms()
    assert sorted(formed) == [(float(i), float(j)) for i in range(N) for j in range(i + 1, N)]


def test_chen_residual_equals_per_triple_reference(rng):
    for path in _walk_and_forest_paths(rng, 9):
        s = path.system
        for cap in (None, 20):
            worst = 0.0
            for a, b, c in grid_triples(len(path), cap):
                lhs = s.mul(path.increment(a, b), path.increment(b, c))
                worst = max(worst, tensor_max_dev(lhs, path.increment(a, c)))
            assert chen_residual(path, max_triples=cap) == worst


def test_chen_residual_memory_is_chunked(rng):
    import tracemalloc

    path = signature_piecewise_linear(rng.normal(size=(120, 2)).cumsum(axis=0) * 0.1, 2)
    tracemalloc.start()
    try:
        residual = chen_residual(path)  # all C(120, 3) = 280,840 triples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual < 1e-12
    assert peak < 5e6


def _window_dp(dist, p, i0, i1):
    """Reference: the p-variation DP of one window, from scratch."""
    powers = dist[i0 : i1 + 1, i0 : i1 + 1] ** p
    best = np.zeros(i1 - i0 + 1)
    for j in range(1, i1 - i0 + 1):
        best[j] = np.max(best[:j] + powers[:j, j])
    return float(best[-1])


@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
def test_control_rows_equal_window_dp(order, rng):
    path = signature_piecewise_linear(rng.normal(size=(14, 2)), 2)
    N = len(path)
    windows = [(i, j) for i in range(N) for j in range(i + 1, N)]
    if order == "descending":
        windows = windows[::-1]
    elif order == "random":
        windows = [windows[k] for k in rng.permutation(len(windows))]
    for p in (1.0, 2.5):
        ctrl = control_from_pvar(path, p)
        dist = path.increment_norms()
        for i, j in windows:
            assert ctrl(i, j) == _window_dp(dist, p, i, j)
        assert p_variation(path, p, window=(2, 9)) == _window_dp(dist, p, 2, 9) ** (1.0 / p)


def test_new_control_computes_no_norms(rng, monkeypatch):
    calls = []
    original = SampledGroupPath.increment_norms

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(SampledGroupPath, "increment_norms", counted)
    path = signature_piecewise_linear(rng.normal(size=(6, 2)), 2)
    ctrl = control_from_pvar(path, 2.0) + uniform_control(path.times)
    assert calls == []
    assert ctrl(1, 4) > 0 and len(calls) == 1


def test_control_sum_keeps_operand_order(rng):
    path = signature_piecewise_linear(rng.normal(size=(8, 2)), 2)
    a, b, c = control_from_pvar(path, 2.0), uniform_control(path.times), control_from_pvar(path, 1.5)
    left, right = (a + b) + c, a + (b + c)
    for i, j in [(0, 7), (1, 5), (3, 4)]:
        assert left(i, j) == (a(i, j) + b(i, j)) + c(i, j)
        assert right(i, j) == a(i, j) + (b(i, j) + c(i, j))


def test_two_point_control_has_no_triples():
    path = signature_piecewise_linear(np.array([[0.0], [1.0]]), 2)
    assert control_from_pvar(path, 2.0).superadditivity_residual() == 0.0


def _chen_reference(pts, n):
    """Running signature by one segment exponential and one Chen product per segment."""
    system = tensor_system("nilpotent", pts.shape[1], n)
    g, values = system.unit(), [system.unit()]
    for k in range(pts.shape[0] - 1):
        g = system.mul(g, signature_of_segment(pts[k + 1] - pts[k], n))
        values.append(g)
    return values


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_signature_matches_per_segment_chen_products(n, rng):
    pts = rng.normal(size=(40, 2)).cumsum(axis=0) * 0.3
    pts[7] = pts[6]  # a zero segment
    path = signature_piecewise_linear(pts, n)
    ref = _chen_reference(pts, n)
    for k, level in enumerate(path.levels):
        assert level.tobytes() == np.array([v.levels[k] for v in ref]).tobytes()


def test_values_are_read_only_rows_of_the_stacked_levels(rng):
    path = signature_piecewise_linear(rng.normal(size=(9, 2)), 3)
    assert len(path.values) == len(path) == 9
    for i, v in enumerate(path.values):
        assert all(l.tobytes() == level[i].tobytes() for l, level in zip(v.levels, path.levels))
        with pytest.raises(ValueError):
            v.levels[1][0] = 1.0
    b2 = tensor_system("butcher", 2, 2)
    forest = path_from_increments(b2, np.arange(5.0), [random_character(b2, rng) for _ in range(4)])
    for i, v in enumerate(forest.values):
        assert all(l.tobytes() == level[i].tobytes() for l, level in zip(v.levels, forest.levels))


def test_builders_keep_values_as_rows(rng):
    path = signature_piecewise_linear(rng.normal(size=(9, 2)), 2)
    for built, rows in ((path.dilate(0.5), [path.system.dilate(v, 0.5) for v in path.values]),
                        (path.restrict([0, 3, 8]), [path.values[i] for i in (0, 3, 8)])):
        for k, level in enumerate(built.levels):
            assert level.tobytes() == np.array([v.levels[k] for v in rows]).tobytes()
