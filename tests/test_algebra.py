import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle.algebra import GradedIndex, coefficient_sums, tensor_system
from conftest import random_character, random_grouplike, tensor_max_dev


@pytest.fixture(params=["nilpotent", "butcher"])
def system(request):
    return tensor_system(request.param, 2, 3)


def random_element(system, rng, scale=0.8):
    t = system.zero()
    for k in range(system.n + 1):
        t.levels[k][:] = rng.normal(size=system.dim(k)) * scale
    return t


def random_group_element(system, rng):
    if system.kind == "nilpotent":
        return random_grouplike(system, rng)
    return random_character(system, rng)


def test_word_product_matches_pen_and_paper():
    s = tensor_system("nilpotent", 1, 2)
    a = s.from_levels([[1.0], [1.0], [0.0]])
    sq = s.mul(a, a)
    assert [l.tolist() for l in sq.levels] == [[1.0], [2.0], [1.0]]


def test_forest_product_ladder_coefficients():
    # (1 + dot) * (1 + ladder): ladder coefficient 1, dot-pair 0, dot 1
    from cocycle import trees

    s = tensor_system("butcher", 1, 2)
    a = s.zero()
    a.levels[0][0] = 1.0
    a.levels[1][0] = 1.0
    b = s.zero()
    b.levels[0][0] = 1.0
    ladder = (trees.tree(1, (trees.tree(1),)),)
    b.levels[2][s.forest_position(2, ladder)] = 1.0
    ab = s.mul(a, b)
    pair = (trees.tree(1), trees.tree(1))
    assert ab.levels[2][s.forest_position(2, ladder)] == 1.0
    assert ab.levels[2][s.forest_position(2, pair)] == 0.0
    assert ab.levels[1][0] == 1.0


def test_unit_is_neutral(system, rng):
    a = random_element(system, rng)
    u = system.unit()
    assert tensor_max_dev(system.mul(a, u), a) == 0.0
    assert tensor_max_dev(system.mul(u, a), a) == 0.0


def test_associativity(system, rng):
    for _ in range(10):
        a, b, c = (random_element(system, rng) for _ in range(3))
        lhs = system.mul(system.mul(a, b), c)
        rhs = system.mul(a, system.mul(b, c))
        assert tensor_max_dev(lhs, rhs) < 1e-12


def test_system_mismatch_rejected():
    a = tensor_system("nilpotent", 2, 3).unit()
    b = tensor_system("nilpotent", 2, 2).unit()
    with pytest.raises(ValueError, match="mismatch"):
        tensor_system("nilpotent", 2, 3).mul(a, b)


def test_inverse_of_hand_example():
    s = tensor_system("nilpotent", 1, 2)
    a = s.from_levels([[1.0], [1.0], [0.5]])
    inv = s.inverse(a)
    assert [l.tolist() for l in inv.levels] == [[1.0], [-1.0], [0.5]]


def test_inverse_roundtrip(system, rng):
    for _ in range(10):
        a = random_group_element(system, rng)
        prod = system.mul(a, system.inverse(a))
        assert tensor_max_dev(prod, system.unit()) < 1e-13


def test_inverse_rejects_wrong_scalar(system):
    a = system.zero()
    with pytest.raises(ValueError, match="degree-0"):
        system.inverse(a)


def test_exp_series():
    s = tensor_system("nilpotent", 1, 3)
    e = s.zero()
    e.levels[1][0] = 1.0
    g = s.exp(e)
    assert np.allclose(
        [g.levels[k][0] for k in range(4)], [1.0, 1.0, 0.5, 1.0 / 6.0]
    )


def test_log_exp_inverse(system, rng):
    for _ in range(5):
        a = random_group_element(system, rng)
        assert tensor_max_dev(system.exp(system.log(a)), a) < 1e-13
        v = random_element(system, rng, scale=0.4)
        v.levels[0][0] = 0.0
        assert tensor_max_dev(system.log(system.exp(v)), v) < 1e-12


def test_log_of_segment_signature():
    s = tensor_system("nilpotent", 2, 3)
    v = s.zero()
    v.levels[1][:] = [0.3, -0.7]
    logs = s.log(s.exp(v))
    assert np.allclose(logs.levels[1], [0.3, -0.7])
    # nothing above level 1 for a single segment
    assert np.abs(logs.levels[2]).max() < 1e-15
    assert np.abs(logs.levels[3]).max() < 1e-15


def test_truncate_is_homomorphism(system, rng):
    for m in range(system.n + 1):
        a, b = random_element(system, rng), random_element(system, rng)
        lhs = system.truncate(system.mul(a, b), m)
        low = tensor_system(system.kind, system.d, m)
        rhs = low.mul(system.truncate(a, m), system.truncate(b, m))
        assert tensor_max_dev(lhs, rhs) < 1e-13


def test_truncate_rejects_above_level(system):
    with pytest.raises(ValueError):
        system.truncate(system.unit(), system.n + 1)


def test_truncate_to_zero_is_scalar(system):
    t = system.truncate(system.unit(), 0)
    assert t.levels[0][0] == 1.0
    assert t.system.n == 0


def test_dilate(system, rng):
    u = system.unit()
    assert tensor_max_dev(system.dilate(u, 5.0), u) == 0.0
    a = random_group_element(system, rng)
    assert tensor_max_dev(system.dilate(a, 0.0), system.unit()) == 0.0
    roundtrip = system.dilate(system.dilate(a, 3.0), 1.0 / 3.0)
    assert tensor_max_dev(roundtrip, a) < 1e-13
    # grouplike is preserved
    assert system.grouplike_check(system.dilate(a, 0.7), 1e-10)


def test_grouplike_check(system, rng):
    assert system.grouplike_check(system.unit(), 1e-12)
    a = random_group_element(system, rng)
    assert system.grouplike_check(a, 1e-11)
    b = random_group_element(system, rng)
    assert system.grouplike_check(system.mul(a, b), 1e-11)
    assert system.grouplike_check(system.inverse(a), 1e-11)


def test_grouplike_rejects_flat_level_one():
    s = tensor_system("nilpotent", 2, 2)
    a = s.zero()
    a.levels[0][0] = 1.0
    a.levels[1][0] = 1.0  # 1 + e with empty level 2: shuffle forces e x e = 2 e.e
    assert not s.grouplike_check(a, 1e-12)


def test_segment_signature_grouplike():
    from cocycle.paths import signature_of_segment

    sig = signature_of_segment([0.4, -0.2, 0.9], 3)
    assert sig.system.grouplike_check(sig, 1e-12)


def test_norm_multiplicative_on_concatenation(rng):
    # ell-1 norm of a pure outer product equals the product of norms
    s = tensor_system("nilpotent", 2, 4)
    u = rng.normal(size=2)
    v = rng.normal(size=4)
    a = s.zero()
    a.levels[1][:] = u
    b = s.zero()
    b.levels[2][:] = v
    prod = s.mul(a, b)
    assert np.isclose(
        np.abs(prod.levels[3]).sum(), np.abs(u).sum() * np.abs(v).sum(), atol=1e-13
    )


def test_coproduct_table_consistency():
    s = tensor_system("butcher", 2, 3)
    bound = s.structural_bound()
    total = sum(s.dim(k) for k in range(4))
    assert bound >= total or bound >= s._max_row
    for k in range(1, 4):
        for idx in s.indices(k):
            rows = s.coproduct_rows(idx)
            assert len(rows) <= bound
            for left, right, count in rows:
                from cocycle import trees

                assert trees.forest_size(left) + trees.forest_size(right) == k
                assert count >= 1


def test_structural_bound_dominates_basis():
    for kind in ("nilpotent", "butcher"):
        s = tensor_system(kind, 2, 3)
        assert s.structural_bound() >= 1


@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(st.floats(-2, 2), min_size=6, max_size=6))
def test_word_mul_agrees_with_convolution(coeffs):
    s = tensor_system("nilpotent", 2, 2)
    a = s.from_levels([[1.0], coeffs[:2], [0.0, 0.0, 0.0, 0.0]])
    b = s.from_levels([[1.0], coeffs[2:4], [coeffs[4], coeffs[5], 0.0, 0.0]])
    ab = s.mul(a, b)
    expect = np.outer(coeffs[:2], coeffs[2:4]).reshape(-1) + np.array(
        [coeffs[4], coeffs[5], 0.0, 0.0]
    )
    assert np.allclose(ab.levels[2], expect)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_grouplike_closed_under_product(data):
    s = tensor_system("nilpotent", 2, 3)
    vals = data.draw(
        st.lists(st.floats(-0.9, 0.9), min_size=4, max_size=4)
    )
    v1, v2 = s.zero(), s.zero()
    v1.levels[1][:] = vals[:2]
    v2.levels[1][:] = vals[2:]
    g = s.mul(s.exp(v1), s.exp(v2))
    assert s.grouplike_check(g, 1e-10)


def test_graded_index_validation():
    with pytest.raises(ValueError):
        GradedIndex("nilpotent", 2, (1,))
    with pytest.raises(ValueError):
        GradedIndex("weird", 0, ())


def test_serialization_order_is_canonical():
    s = tensor_system("nilpotent", 2, 2)
    idx = [str(i) for i in s.all_indices()]
    assert idx == ["()", "1", "2", "1.1", "1.2", "2.1", "2.2"]


def test_forest_mul_batched_matches_loop(rng):
    s = tensor_system("butcher", 2, 2)
    batch = 5
    a = [rng.normal(size=(batch, s.dim(k))) for k in range(3)]
    b = [rng.normal(size=(batch, s.dim(k))) for k in range(3)]
    batched = s.mul_levels(a, b)
    for i in range(batch):
        single = s.mul_levels([l[i] for l in a], [l[i] for l in b])
        for k in range(3):
            assert np.allclose(batched[k][i], single[k])


@pytest.mark.parametrize("shape_a, shape_b", [((6,), (6,)), ((2, 3), (2, 3)), ((), (5,)), ((4, 1), (1, 3))])
def test_forest_mul_levels_batched_is_exact(shape_a, shape_b, rng):
    s = tensor_system("butcher", 2, 4)
    a = [rng.normal(size=shape_a + (s.dim(k),)) for k in range(5)]
    b = [rng.normal(size=shape_b + (s.dim(k),)) for k in range(5)]
    batched = s.mul_levels(a, b)
    lead = np.broadcast_shapes(shape_a, shape_b)
    for pos in np.ndindex(lead):
        row_a, row_b = ([np.broadcast_to(l, lead + l.shape[-1:])[pos] for l in x] for x in (a, b))
        single = s.mul(s.from_levels(row_a), s.from_levels(row_b))  # one 1-D product
        for k in range(5):
            assert np.array_equal(batched[k][pos], single.levels[k])


@pytest.mark.parametrize(
    "kind, d, n",
    [("nilpotent", 1, 4), ("nilpotent", 2, 4), ("nilpotent", 3, 3), ("butcher", 2, 3), ("butcher", 2, 4)],
)
@pytest.mark.parametrize("M", [1, 2, 37])
def test_mul_columns_equals_mul_levels_bytes(kind, d, n, M, rng):
    # one element against M in column layout: the same bits as the row product
    s = tensor_system(kind, d, n)
    a = [rng.normal(size=s.dim(k)) for k in range(n + 1)]
    b = [rng.normal(size=(M, s.dim(k))) for k in range(n + 1)]
    cols = [np.ascontiguousarray(l.T) for l in b]
    rows = s.mul_levels(a, b)
    for col, row in zip(s.mul_columns(a, cols), rows):
        assert col.shape == row.shape[::-1]
        assert np.ascontiguousarray(col.T).tobytes() == row.tobytes()
    wide = [np.hstack([rng.normal(size=(s.dim(k), 3)), c]) for k, c in enumerate(cols)]
    for col, row in zip(s.mul_columns(a, [w[:, 3:] for w in wide]), rows):  # strided column views
        assert np.ascontiguousarray(col.T).tobytes() == row.tobytes()


@pytest.mark.parametrize(
    "kind, d, n",
    [("nilpotent", 1, 4), ("nilpotent", 2, 4), ("nilpotent", 3, 3), ("butcher", 2, 3), ("butcher", 2, 4)],
)
@pytest.mark.parametrize("B, M", [(1, 1), (1, 37), (5, 1), (4, 37)])
def test_batched_mul_columns_equals_mul_levels_bytes(kind, d, n, B, M, rng):
    # B left elements against M in column layout: out[k][b] is the column layout of a[b] * cols
    s = tensor_system(kind, d, n)
    a = [rng.normal(size=(B, s.dim(k))) for k in range(n + 1)]
    b = [rng.normal(size=(M, s.dim(k))) for k in range(n + 1)]
    cols = [np.ascontiguousarray(l.T) for l in b]
    prod = s.mul_columns(a, cols)
    for k in range(n + 1):
        assert prod[k].shape == (B, s.dim(k), M)
    for r in range(B):
        rows = s.mul_levels([l[r] for l in a], b)
        for col, row in zip(prod, rows):
            assert np.ascontiguousarray(col[r].T).tobytes() == row.tobytes()


@pytest.mark.parametrize("kind, d, n", [("nilpotent", 2, 3), ("nilpotent", 3, 2), ("butcher", 2, 3)])
def test_products_and_norms_of_zero_rows_are_empty(kind, d, n, rng):
    # a batch of no elements: every level keeps its coefficient axis, the norms are empty
    s = tensor_system(kind, d, n)
    none = [np.zeros((0, s.dim(k))) for k in range(n + 1)]
    one = [rng.normal(size=s.dim(k)) for k in range(n + 1)]
    for prod in (s.mul_levels(none, none), s.mul_levels(one, none), s.mul_levels(none, one)):
        assert [l.shape for l in prod] == [(0, s.dim(k)) for k in range(n + 1)]
    assert s.homogeneous_norm(none).shape == (0,)
    assert s.grouplike_residual(none).shape == (0,)
    cols = [np.zeros((s.dim(k), 0)) for k in range(n + 1)]
    assert [l.shape for l in s.mul_columns([l[None] for l in one], cols)] == [(1, s.dim(k), 0) for k in range(n + 1)]
    assert [l.shape for l in s.mul_columns(none, [c[:, None] for c in one])] == [(0, s.dim(k), 1) for k in range(n + 1)]


@pytest.mark.parametrize("lead", [(), (6,), (3, 5)])
def test_coefficient_sums_replay_numpy_row_sums(lead, rng):
    # the bits of numpy's own sum of contiguous rows at every length: sequential below 8,
    # eight accumulators to 128, halves above; a numpy with another order fails here
    for n in range(1, 301):
        x = np.abs(rng.normal(size=lead + (n,))) * 10.0 ** rng.uniform(-12, 12, size=lead + (n,))
        want = np.asarray(x.sum(axis=-1))
        got = np.asarray(coefficient_sums(x))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        transposed = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)  # column layout
        assert np.asarray(coefficient_sums(transposed)).tobytes() == want.tobytes()
        strided = np.repeat(x, 2, axis=-1)[..., ::2]
        assert np.asarray(coefficient_sums(strided)).tobytes() == want.tobytes()


def test_coefficient_sums_keep_signs_and_zeros(rng):
    for n in (1, 7, 8, 9, 16, 129, 300):
        x = rng.normal(size=(40, n)) * 10.0 ** rng.uniform(-12, 12, size=(40, n))
        x[:5] = np.where(rng.random((5, n)) < 0.5, -0.0, 0.0)  # all-zero rows of mixed sign
        assert coefficient_sums(x).tobytes() == x.sum(axis=-1).tobytes()
        assert coefficient_sums(x.T.copy().T).tobytes() == x.sum(axis=-1).tobytes()


def _series_exp(system, v):
    """The truncated exponential series on tensors, one term at a time (reference)."""
    out, term = system.unit(), system.unit()
    for k in range(1, system.n + 1):
        term = (1.0 / k) * system.mul(term, v)
        out = out + term
    return out


def _series_log(system, a):
    """The truncated logarithm series on tensors, one term at a time (reference)."""
    u, out, term = a - system.unit(), system.zero(), system.unit()
    for k in range(1, system.n + 1):
        term = system.mul(term, u)
        out = out + ((-1.0) ** (k + 1) / k) * term
    return out


@pytest.mark.parametrize("kind", ["nilpotent", "butcher"])
@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_stacked_exp_log_match_each_row(kind, shape, rng):
    s = tensor_system(kind, 2, 3)
    rows = []
    for _ in range(int(np.prod(shape))):
        v = random_element(s, rng, scale=0.5)
        v.levels[0][:] = 0.0
        rows.append(v)
    v = [np.array([r.levels[k] for r in rows]).reshape(shape + (s.dim(k),)) for k in range(s.n + 1)]
    exps = s.exp_levels(v)
    logs = s.log_levels(exps)
    for i, idx in enumerate(np.ndindex(shape)):
        one = s.exp(rows[i])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(one.levels, _series_exp(s, rows[i]).levels))
        assert all(e[idx].tobytes() == o.tobytes() for e, o in zip(exps, one.levels))
        back = s.log(one)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back.levels, _series_log(s, one).levels))
        assert all(l[idx].tobytes() == b.tobytes() for l, b in zip(logs, back.levels))
    assert all(e.shape == shape + (s.dim(k),) for k, e in enumerate(exps))


def test_stacked_exp_log_refuse_any_bad_row():
    s = tensor_system("nilpotent", 2, 2)
    v = [np.zeros((4, s.dim(k))) for k in range(3)]
    v[0][2, 0] = 0.5
    with pytest.raises(ValueError, match="degree-0 coefficient 0"):
        s.exp_levels(v)
    a = [np.zeros((4, s.dim(k))) for k in range(3)]
    a[0][:, 0] = 1.0
    a[0][3, 0] = 2.0
    with pytest.raises(ValueError, match="degree-0 coefficient 1"):
        s.log_levels(a)
