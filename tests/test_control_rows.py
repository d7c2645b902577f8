"""Row queries of controls and the one Holder-quotient reduction of the certificates.

Every certificate value is pinned by ``float.hex`` against the per-pair loop
it replaced, kept here as the reference: the loops query the control one
window at a time and keep the first strict maximum in their visiting order.
"""

import itertools
import math

import numpy as np
import pytest

from cocycle.algebra import tensor_system
from cocycle.dominated import DominatedPath
from cocycle.one_forms import (
    BranchedRoughOneForm,
    CertificateError,
    LipFunction,
    RoughOneForm,
    TimeVaryingRoughOneForm,
    column_norms,
    holder_remainder_residual,
    integrable_condition_check,
    slowly_varying_certificate,
)
from cocycle.paths import (
    CHEN_CHUNK,
    Control,
    control_from_pvar,
    grid_triples,
    holder_quotients,
    p_variation,
    path_from_increments,
    signature_piecewise_linear,
    sup_quotient,
    uniform_control,
)
from cocycle.sewing import loglog_slope, sew
from conftest import random_character

P = 2.0
THETA = 1.5


def hexes(x):
    """Nested floats as their hex spelling, for bit-for-bit comparisons."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (int, type(None), str)):
        return x
    if isinstance(x, np.ndarray):
        return hexes(x.tolist())
    if isinstance(x, dict):
        return {k: hexes(v) for k, v in x.items()}
    return [hexes(v) for v in x]


# -- reference loops, one control query per window -----------------------------


class ScalarPVarRows:
    """The p-variation DP answering one cell per call, each row grown a cell at a time."""

    def __init__(self, norms, p):
        self.powers = norms ** p
        self.rows = {}

    def __call__(self, i, j):
        row = self.rows.get(i, np.zeros(1))
        done = len(row)
        if done <= j - i:
            row = np.concatenate([row, np.empty(j - i + 1 - done)])
            for m in range(done, j - i + 1):
                row[m] = (row[:m] + self.powers[i : i + m, i + m]).max()
            self.rows[i] = row
        return float(row[j - i])


def ref_slowly_varying(beta, path, omega, theta, p):
    N = len(path)
    n = beta.domain.n
    times = np.arange(N)
    own = [beta.probe_matrix(path, times, times, k) for k in range(n + 1)]
    M = max(float(column_norms(P).max(initial=0.0)) for P in own)
    quotients = {k: 0.0 for k in range(1, n + 1)}
    worst_pair = None
    for s in range(N - 1):
        later = times[s + 1 :]
        devs = {
            k: column_norms(own[k][later] - beta.probe_matrix(path, s, later, k)).max(axis=-1).tolist()
            for k in quotients
        }
        for i, t in enumerate(later.tolist()):
            w = omega(s, t)
            if w <= 0:
                continue
            for k in range(1, n + 1):
                q = devs[k][i] / w ** (theta - k / p)
                if q > quotients[k]:
                    quotients[k] = q
                    if q >= max(quotients.values()):
                        worst_pair = (s, t, k)
    beta_norm = M + (max(quotients.values()) if quotients else 0.0)
    return M, quotients, beta_norm, worst_pair


def ref_integrable(beta, path, omega, theta, max_triples):
    N = len(path)
    tgt = beta.target
    ratio, worst = 0.0, None
    triples = grid_triples(N, max_triples)
    while chunk := list(itertools.islice(triples, CHEN_CHUNK)):
        first, mid, last = np.array(chunk, dtype=np.int64).T
        inc = path.increments(mid, last)
        late = beta.eval_rows(path, mid, mid, inc)
        early = beta.eval_rows(path, first, mid, inc)
        devs = tgt.sigma_max_norms(tgt.sub(late, early)).tolist()
        for (s, u, t), dev in zip(chunk, devs):
            w = omega(s, t)
            if w <= 0:
                if dev > 1e-13:
                    ratio = np.inf
                    worst = (s, u, t)
                continue
            q = dev / w**theta
            if q > ratio:
                ratio, worst = q, (s, u, t)
    return ratio, worst


def ref_remainder(d):
    N = len(d.base)
    worst = 0.0
    for s in range(N - 1):
        later = np.arange(s + 1, N)
        ones = d.form.eval_rows(d.base, s, s, d.base.increments(s, later))
        devs = np.abs((d.trace[later] - d.trace[s]) - ones).sum(axis=-1)
        for t, dev in zip(later.tolist(), devs.tolist()):
            w = d.omega(s, t)
            if w <= 0:
                continue
            worst = max(worst, dev / w**d.theta)
    return worst


def ref_empirical_constant(res, min_len=1):
    windows = list(res.dyadic_windows(min_len))
    best = 0.0
    for (i, j), dev in zip(windows, res.local_estimates(windows)):
        w = res.omega(i, j)
        if w <= 0:
            continue
        best = max(best, dev / w**res.theta)
    return best


def ref_local_slope(res, floor=1e-13):
    windows = list(res.dyadic_windows())
    xs, ys = [], []
    for (i, j), dev in zip(windows, res.local_estimates(windows)):
        w = res.omega(i, j)
        if w > 0 and dev > floor:
            xs.append(np.log(w))
            ys.append(np.log(dev))
    return loglog_slope(xs, ys)


def ref_time_variation(form, bound=None):
    xs = list(form.base_path.levels[1])
    own = [[f.deriv(l, x) for l in range(form.hp)] for f, x in zip(form.fs, xs)]
    rows = []
    worst = {}
    for l in range(form.hp):
        expo = form.theta - (l + 1) / form.p
        for s in range(len(xs) - 1):
            for t in range(s + 1, len(xs)):
                dev = float(np.abs(own[t][l] - form.fs[s].deriv(l, xs[t])).max())
                w = form.omega(s, t)
                if w <= 0:
                    continue
                q = dev / w**expo
                rows.append((s, t, l, dev, w, q))
                if q > worst.get(l, (0.0, None))[0]:
                    worst[l] = (q, (s, t, l))
                if bound is not None and q > bound:
                    return {"raised": (s, t, l)}
    return {"rows": rows, "worst": worst}


def ref_holder_remainder(f, samples):
    top = f.top
    expo = f.gamma - top
    worst = 0.0
    pts = [np.asarray(x, dtype=float) for x in samples]
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            gap = float(np.abs(x - y).sum())
            if gap < 1e-12:
                continue
            dev = float(np.abs(f.deriv(top, x) - f.deriv(top, y)).max())
            worst = max(worst, dev / gap**expo)
    return worst


def ref_superadditivity(control, samples=200, seed=0):
    rng = np.random.default_rng(seed)
    N = len(control.times)
    if N < 3:
        return 0.0
    worst = 0.0
    for _ in range(samples):
        s, u, t = sorted(rng.choice(N, size=3, replace=False))
        worst = min(worst, control(s, t) - control(s, u) - control(u, t))
    return worst


def ref_omega_guided(omega, theta, N):
    pts = list(range(N))
    removals, bound = [], 0.0
    while len(pts) > 2:
        l = len(pts) - 1
        total_w = omega(pts[0], pts[-1])
        budget = (2.0 / (l - 1)) * total_w
        pick = None
        for pos in range(1, len(pts) - 1):
            if omega(pts[pos - 1], pts[pos + 1]) <= budget + 1e-15 * max(1.0, total_w):
                pick = pos
                break
        if pick is None:
            pick = int(np.argmin([omega(pts[q - 1], pts[q + 1]) for q in range(1, len(pts) - 1)])) + 1
        removals.append(pts[pick])
        bound += omega(pts[pick - 1], pts[pick + 1]) ** theta
        del pts[pick]
    return removals, bound


# -- fixtures ------------------------------------------------------------------


def _quad(rng):
    """A quadratic one-form on R^2: its second derivative is what the level-2 readout drops."""
    B = rng.normal(size=(1, 2, 2, 2))
    return LipFunction.from_polynomial(
        [rng.normal(size=(1, 2)), rng.normal(size=(1, 2, 2)), B + B.transpose(0, 1, 3, 2)], gamma=3.0
    )


def _word_path(rng, N=10, zero_segment=False):
    pts = rng.normal(size=(N, 2)).cumsum(axis=0) * 0.4
    if zero_segment:  # the path stands still over [3, 6]
        pts[4:7] = pts[3]
    return signature_piecewise_linear(pts, 2, times=np.linspace(0.0, 1.0, N))


def _forest_path(rng, N=9):
    b = tensor_system("butcher", 2, 2)
    return path_from_increments(b, np.arange(float(N)), [random_character(b, rng, 0.4) for _ in range(N - 1)])


def cases():
    """(form, path, control): word and forest paths, a summed control, a zero segment."""
    rng = np.random.default_rng(13)
    f = _quad(rng)
    word = _word_path(rng)
    forest = _forest_path(rng)
    still = _word_path(rng, zero_segment=True)
    return {
        "word": (RoughOneForm(f, word, P), word, control_from_pvar(word, P)),
        "forest": (BranchedRoughOneForm(f, forest, P), forest, control_from_pvar(forest, P)),
        "summed": (RoughOneForm(f, word, P), word, control_from_pvar(word, P) + uniform_control(word.times)
                   + control_from_pvar(word, 1.5)),
        "zero-segment": (RoughOneForm(f, still, P), still, control_from_pvar(still, P)),
    }


CASES = ["word", "forest", "summed", "zero-segment"]


# -- the row query ---------------------------------------------------------------


def scalar_value(control, a, b):
    """w(a, b) as the sum of the leaf controls' one-window values, in Python floats."""
    if b <= a:
        return 0.0
    if control.parts:
        return scalar_value(control.parts[0], a, b) + scalar_value(control.parts[1], a, b)
    return float(control.fn(np.array([a]), np.array([b]))[0])


@pytest.mark.parametrize("name", CASES)
def test_rows_equal_one_window_queries(name):
    _, path, omega = cases()[name]
    N = len(path)
    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    table = omega.rows(i, j)
    assert table.shape == (N, N)
    assert hexes(table) == hexes([[omega(a, b) for b in range(N)] for a in range(N)])
    assert hexes(table) == hexes([[scalar_value(omega, a, b) for b in range(N)] for a in range(N)])
    assert not np.any(table[np.tril_indices(N)])
    # the one-window case, and p-variation, agree with a DP answering one cell per call
    scalar = ScalarPVarRows(path.increment_norms(), P)
    fresh = control_from_pvar(path.dilate(1.0), P)  # a new path: a fresh row store
    for a, b in itertools.combinations(range(N), 2):
        assert fresh(a, b).hex() == scalar(a, b).hex()
    for p in (1.0, 1.5, P, 2.5, 3.0):  # a 0-d numpy power rounds some of these an ulp apart
        cells = ScalarPVarRows(path.increment_norms(), p)
        for a, b in itertools.combinations(range(N), 2):
            assert p_variation(path, p, (a, b)).hex() == (cells(a, b) ** (1.0 / p)).hex()
        assert p_variation(path, p) == p_variation(path, p, (0, N - 1))


def test_zero_segment_has_zero_control_windows():
    _, path, omega = cases()["zero-segment"]
    assert omega.rows([3, 4, 3, 2], [4, 6, 6, 6]).tolist() == [0.0, 0.0, 0.0, omega(2, 3)]
    assert omega(2, 3) > 0


def test_pvar_rows_grow_each_start_once(monkeypatch):
    # a query grows each distinct start row once, to the largest end asked of it
    path = _word_path(np.random.default_rng(2))
    store = path.pvar_rows(P)
    omega = control_from_pvar(path, P)
    omega.rows([[2], [0], [2]], [[3, 5, 9]])
    assert {i: len(r) for i, r in store.rows.items()} == {0: 10, 2: 8}
    ref = ScalarPVarRows(path.increment_norms(), P)
    for i, row in store.rows.items():
        assert hexes(row) == hexes([0.0] + [ref(i, i + m) for m in range(1, len(row))])


@pytest.mark.parametrize("name", CASES)
def test_superadditivity_residual_equals_triple_loop(name):
    _, _, omega = cases()[name]
    for samples, seed in ((200, 0), (57, 3), (0, 1)):
        assert omega.superadditivity_residual(samples, seed).hex() == ref_superadditivity(omega, samples, seed).hex()


# -- the quotient helper ---------------------------------------------------------


def test_holder_quotients_take_python_powers():
    # inputs where np.power rounds an ulp away from Python's power on some machines
    rng = np.random.default_rng(0)
    w = rng.uniform(0.05, 3.0, size=4000)
    dev = rng.uniform(0.0, 2.0, size=4000)
    for e in (0.75, 1.25, 1.5, 1.6, -0.5):
        differ = np.power(w, e) != np.array([x**e for x in w.tolist()])
        for d, x in ((dev, w), (dev[differ], w[differ])):
            q = holder_quotients(d, x, e)
            assert hexes(q) == hexes([a / b**e for a, b in zip(d.tolist(), x.tolist())])
    # np.power rounds these an ulp away from Python's power under AVX-512 (numpy 2.4)
    pinned = [("0x1.edd55e0b8f310p+0", 0.75), ("0x1.4a27e61a4e6e4p+1", 1.25),
              ("0x1.0a5b842ad6e6cp+1", 1.5), ("0x1.22e9061a18444p-1", 1.6)]
    for x, e in pinned:
        x = float.fromhex(x)
        assert holder_quotients(np.ones(3), np.full(3, x), e)[0].item().hex() == (1.0 / x**e).hex()


def test_holder_quotients_skip_zero_control_and_keep_python_errors():
    q = holder_quotients(np.array([1.0, 2.0, 3.0, np.nan]), np.array([0.0, 2.0, -1.0, 4.0]), 1.0)
    assert np.isnan(q[[0, 2, 3]]).all() and q[1] == 1.0
    with pytest.raises(OverflowError):
        holder_quotients(1.0, np.array([0.5, 1e10]), 400.0)
    with pytest.raises(ZeroDivisionError):
        holder_quotients(1.0, np.array([1e-10, 1e10]), 400.0)


def test_sup_quotient_is_first_strict_maximum():
    assert sup_quotient(np.array([np.nan, 1.0, 3.0, 3.0, np.nan])) == (3.0, 2)
    assert sup_quotient(np.array([[0.0, -1.0], [np.nan, 0.0]])) == (0.0, None)
    assert sup_quotient(np.zeros(0)) == (0.0, None)
    assert sup_quotient(np.array([np.inf, 2.0, np.inf])) == (np.inf, 0)


# -- certificates against their per-pair loops -----------------------------------


@pytest.mark.parametrize("theta", [THETA, 0.7, 3.0])
@pytest.mark.parametrize("name", CASES)
def test_slowly_varying_equals_pair_loop(name, theta):
    form, path, omega = cases()[name]
    rep = slowly_varying_certificate(form, path, omega, theta, P)
    M, quotients, norm, worst = ref_slowly_varying(form, path, omega, theta, P)
    assert hexes([rep.M, rep.quotients, rep.beta_norm]) == hexes([M, quotients, norm])
    assert rep.worst_pair == worst and worst is not None


class IntegerProbes:
    """A stand-in form whose probe gaps are small integers, so quotients tie often."""

    def __init__(self, N, n, seed):
        rng = np.random.default_rng(seed)
        self.domain = tensor_system("nilpotent", 1, n)
        self.table = rng.integers(0, 3, size=(n + 1, N, N)).astype(float)

    def probe_matrix(self, path, s, times, k):
        return np.zeros((np.size(times), 1, 1)) if np.ndim(s) else -self.table[k][s, times][:, None, None]


@pytest.mark.parametrize("seed", range(12))
def test_slowly_varying_tie_break_equals_pair_loop(seed):
    # integer gaps read at unit, integer or vanishing controls: quotients tie across degrees and pairs
    N = 7
    path = signature_piecewise_linear(np.arange(N, dtype=float)[:, None], 1)
    beta = IntegerProbes(N, 2, seed)
    omega = [
        Control(path.times, lambda i, j: np.ones(np.shape(i))),
        uniform_control(np.arange(N, dtype=float)),
        Control(path.times, lambda i, j: np.where(j - i > 1, 1.0, 0.0)),
    ][seed % 3]
    rep = slowly_varying_certificate(beta, path, omega, 1.0, 1.0)
    M, quotients, norm, worst = ref_slowly_varying(beta, path, omega, 1.0, 1.0)
    assert hexes([rep.M, rep.quotients, rep.beta_norm]) == hexes([M, quotients, norm])
    assert rep.worst_pair == worst


@pytest.mark.parametrize("max_triples", [None, 40])
@pytest.mark.parametrize("theta", [THETA, 3.0])
@pytest.mark.parametrize("name", CASES)
def test_integrable_check_equals_triple_loop(name, theta, max_triples):
    form, path, omega = cases()[name]
    rep = integrable_condition_check(form, path, omega, theta, max_triples=max_triples)
    ratio, worst = ref_integrable(form, path, omega, theta, max_triples)
    assert (rep.ratio.hex(), rep.worst_triple) == (float(ratio).hex(), worst) and worst is not None


def test_integrable_check_reports_last_unbounded_triple():
    # a control that vanishes on short windows: the deviations there make the ratio infinite
    form, path, _ = cases()["word"]
    gapped = Control(path.times, lambda i, j: np.where(j - i > 3, path.times[j] - path.times[i], 0.0))
    rep = integrable_condition_check(form, path, gapped, THETA, max_triples=None)
    ratio, worst = ref_integrable(form, path, gapped, THETA, None)
    assert rep.ratio == ratio == np.inf
    assert rep.worst_triple == worst and worst[2] - worst[0] <= 3
    assert worst == max(t for t in itertools.combinations(range(len(path)), 3) if t[2] - t[0] <= 3)


@pytest.mark.parametrize("name", CASES)
def test_dominated_quotients_equal_pair_loops(name):
    form, path, omega = cases()[name]
    d = DominatedPath.from_form(path, form, omega, THETA, P)
    assert d.remainder_quotient().hex() == ref_remainder(d).hex()
    assert ref_remainder(d) > 0


@pytest.mark.parametrize("name", CASES)
def test_sewing_estimates_equal_window_loops(name):
    form, path, omega = cases()[name]
    res = sew(form, path, omega, THETA, check=False)
    for min_len in (1, 2):
        assert res.empirical_constant(min_len).hex() == ref_empirical_constant(res, min_len).hex()
    assert res.local_slope().hex() == ref_local_slope(res).hex()


@pytest.mark.parametrize("name", CASES)
def test_omega_guided_removals_equal_window_loop(name):
    form, path, omega = cases()[name]
    res = sew(form, path, omega, THETA, schedule="omega", check=False)
    removals, bound = ref_omega_guided(omega, THETA, len(path))
    assert (res.removal_order, res.removal_bound.hex()) == (removals, bound.hex())


@pytest.mark.parametrize("gamma", [1.2, 1.5, 2.0])
def test_holder_remainder_residual_equals_pair_loop(gamma):
    rng = np.random.default_rng(7)
    B = rng.normal(size=(1, 2, 2, 2))
    f = LipFunction.from_polynomial(
        [rng.normal(size=(1, 2)), rng.normal(size=(1, 2, 2)), B + B.transpose(0, 1, 3, 2)], gamma=gamma
    )
    samples = rng.normal(size=(12, 2))
    samples[5] = samples[2]  # a pair with no gap, skipped
    assert holder_remainder_residual(f, samples).hex() == ref_holder_remainder(f, samples).hex()
    assert ref_holder_remainder(f, samples) > 0
    assert holder_remainder_residual(f, samples[:1]) == ref_holder_remainder(f, samples[:1]) == 0.0


def _time_varying(omega_of, N=9):
    rng = np.random.default_rng(5)
    path = _word_path(rng, N, zero_segment=True)
    base = _quad(rng)
    fs = [
        LipFunction.from_polynomial([np.cos(t) * base.deriv(0, np.zeros(2)), base.deriv(1, np.zeros(2))], gamma=2.0)
        for t in range(N)
    ]
    return TimeVaryingRoughOneForm(fs, path, 2.5, omega_of(path), theta=THETA)


@pytest.mark.parametrize(
    "omega_of",
    [lambda g: control_from_pvar(g, 2.5), lambda g: control_from_pvar(g, 2.5) + uniform_control(g.times)],
    ids=["pvar", "summed"],
)
def test_time_variation_report_equals_pair_loop(omega_of):
    form = _time_varying(omega_of)
    report = form.time_variation_report()
    ref = ref_time_variation(form)
    assert hexes(report["rows"]) == hexes(ref["rows"])
    assert hexes(report["worst"]) == hexes(ref["worst"])
    skipped = form.hp * math.comb(len(form.fs), 2) - len(ref["rows"])
    assert skipped == (6 * form.hp if form.omega(3, 4) == 0.0 else 0)  # the windows inside [3, 6]
    qs = sorted({row[5] for row in ref["rows"] if np.isfinite(row[5])})
    for bound in (qs[len(qs) // 2], qs[-2], qs[0]):
        with pytest.raises(CertificateError) as err:
            form.time_variation_report(bound=bound)
        assert err.value.detail == ref_time_variation(form, bound)["raised"]
