"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import io
import json
import pathlib
import sys

import numpy as np
import pytest

from cocycle import oracles, serialize, trees
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
from cocycle.extension import extend_one_level, extend_to_level
from cocycle.maps import double_split_residual, iterated_integral_closed, iterated_integral_map
from cocycle.one_forms import (
    LevelRaisingForm,
    LipFunction,
    PolynomialCocyclicForm,
    RoughOneForm,
    mixed_one_form,
    polynomial_trace_increment,
    slowly_varying_certificate,
)
from cocycle.paths import (
    SampledGroupPath,
    chen_residual,
    control_from_pvar,
    p_variation,
    path_from_increments,
    signature_piecewise_linear,
)
from cocycle.sewing import refine_and_compare, sew
from conftest import path_max_dev, random_character, random_grouplike

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def report(number: int, description: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def signature_family():
    rng = np.random.default_rng(41)
    paths = []
    for _ in range(50):
        pts = rng.normal(size=(64, 2)).cumsum(axis=0) * 0.3
        paths.append(signature_piecewise_linear(pts, 4, times=np.linspace(0, 1, 64)))
    return paths


def test_criterion_01_chen_identity(signature_family):
    worst = max(chen_residual(path) for path in signature_family)
    report(1, "Chen identity on 50 random paths (d=2, n=4, N=64)", worst <= 1e-12,
           f"max residual {worst:.2e}")


def test_criterion_02_grouplike_shuffle(signature_family):
    worst = 0.0
    for path in signature_family[:10]:
        worst = max(worst, max(path.system.grouplike_residual(v) for v in path.values))
    # forest-side relations on a character path
    rng = np.random.default_rng(7)
    b2 = tensor_system("butcher", 2, 2)
    incs = [random_character(b2, rng, scale=0.4) for _ in range(16)]
    bpath = path_from_increments(b2, np.arange(17.0), incs)
    worst_b = max(b2.grouplike_residual(v) for v in bpath.values)
    ok = worst <= 1e-12 and worst_b <= 1e-12
    report(2, "grouplike/shuffle relations on all signature values", ok,
           f"word {worst:.2e}, forest {worst_b:.2e}")


def test_criterion_03_cocycle_law():
    rng = np.random.default_rng(3)
    dom = tensor_system("nilpotent", 2, 4)
    A0 = np.zeros((1, 2))
    A1 = np.zeros((1, 2, 2))
    A1[0, 0, 0], A1[0, 0, 1], A1[0, 1, 1] = 1.0, 2.0, -1.0
    poly = PolynomialCocyclicForm([0.0], LipFunction.from_polynomial([A0, A1]), 2, dom)
    worst_poly = 0.0
    for _ in range(100):
        a, b, c = (random_grouplike(dom, rng) for _ in range(3))
        worst_poly = max(worst_poly, poly.cocycle_residual(0, a, b, c))
    pts = rng.normal(size=(6, 2)).cumsum(axis=0) * 0.4
    g2 = signature_piecewise_linear(pts, 2)
    raising = LevelRaisingForm(g2)
    worst_raise = 0.0
    for _ in range(100):
        a, b, c = (random_grouplike(g2.system, rng) for _ in range(3))
        worst_raise = max(worst_raise, raising.cocycle_residual(2, a, b, c))
    ok = worst_poly <= 1e-10 and worst_raise <= 1e-10
    report(3, "cocycle law for polynomial and level-raising forms (200 triples)",
           ok, f"poly {worst_poly:.2e}, raising {worst_raise:.2e}")


def _cubic_arrays():
    arrs = [np.zeros((1,) + (1,) * (l + 1)) for l in range(4)]
    arrs[0][0, 0] = 0.2
    arrs[1][0, 0, 0] = 1.0
    arrs[2][(0,) + (0,) * 3] = -0.6
    arrs[3][(0,) + (0,) * 4] = 2.4
    return arrs


def test_criterion_04_sewing_vs_closed_form():
    N = 1025
    ts = np.linspace(0.0, 1.0, N)
    xs = ts + 0.4 * np.sin(2.0 * ts)
    g = signature_piecewise_linear(xs[:, None], 4, times=ts)
    om = control_from_pvar(g, 1.0)
    f_full = LipFunction.from_polynomial(_cubic_arrays(), gamma=4.0)
    form = RoughOneForm(f_full, g, p=4.0)
    res = sew(form, g, om, theta=form.theta, check=False)
    closed = polynomial_trace_increment(f_full, g, 0, N - 1)
    dev = float(np.abs(res.values[-1] - closed).max())

    # truncated stack on the same data: measured mesh-halving decay
    g2 = signature_piecewise_linear(xs[:, None], 2, times=ts)
    om2 = control_from_pvar(g2, 2.0)
    f_trunc = LipFunction.from_polynomial(_cubic_arrays(), gamma=2.0)
    form2 = RoughOneForm(f_trunc, g2, p=2.0)
    coarse = g2.restrict(range(0, N, 128))
    rep = refine_and_compare(form2, g2, coarse, om2, form2.theta)
    ok = dev <= 1e-8 and rep.exponent >= form2.theta - 1.0 - 0.1
    report(4, "sewn polynomial integral vs closed form at N=1024",
           ok, f"dev {dev:.2e}, decay exponent {rep.exponent:.2f}")


def test_criterion_05_local_estimate_slope():
    ts = np.linspace(0.0, 1.0, 257)
    xs = ts + 0.3 * np.sin(2.0 * ts)
    g = signature_piecewise_linear(xs[:, None], 2, times=ts)
    om = control_from_pvar(g, 2.0)
    f = LipFunction.from_polynomial(_cubic_arrays(), gamma=2.0)
    form = RoughOneForm(f, g, p=2.0)  # theta = (gamma + 1) / p = 1.5
    res = sew(form, g, om, theta=form.theta, check=False)
    slope = res.local_slope()
    ok = slope >= form.theta - 0.1
    report(5, "one-step deviation obeys the omega^theta law",
           ok, f"slope {slope:.3f} vs theta {form.theta:.3f}")


def test_criterion_06_extension_theorem():
    rng = np.random.default_rng(11)
    base_pts = rng.normal(size=(17, 2)).cumsum(axis=0) * 0.4
    ts = np.linspace(0.0, 1.0, 17)
    g2 = signature_piecewise_linear(base_pts, 2, times=ts)
    dev_sig = 0.0
    for n in (3, 4):
        direct = signature_piecewise_linear(base_pts, n, times=ts)
        lifted, _ = extend_to_level(g2, n, p=1.5)
        dev_sig = max(dev_sig, path_max_dev(lifted, direct))
    c = 1.7
    dil_dev = path_max_dev(
        extend_one_level(g2.dilate(c), 1.5), extend_one_level(g2, 1.5).dilate(c)
    )
    ratios, route_devs = [], []
    for refine in (1, 2, 4):
        pts_r, ts_r = [base_pts[0]], [ts[0]]
        for i in range(len(base_pts) - 1):
            for j in range(1, refine + 1):
                frac = j / refine
                pts_r.append(base_pts[i] + frac * (base_pts[i + 1] - base_pts[i]))
                ts_r.append(ts[i] + frac * (ts[i + 1] - ts[i]))
        gr = signature_piecewise_linear(np.array(pts_r), 2, times=np.array(ts_r))
        g4r, _ = extend_to_level(gr, 4, p=1.5)
        ratios.append(p_variation(g4r, 1.5) / p_variation(gr, 1.5))
        # uniqueness: the raw level-raising one-form, sewn in the unit-scalar algebra,
        # and the group lift are two routes to the one level-3 extension
        raw = sew(LevelRaisingForm(gr), gr, control_from_pvar(gr, 1.5), theta=2.0, check=True)
        raw_path = SampledGroupPath(tensor_system("nilpotent", 2, 3), gr.times, raw.prefixes)
        route_devs.append(path_max_dev(raw_path, extend_one_level(gr, 1.5)))
    spread = (max(ratios) - min(ratios)) / np.mean(ratios)
    halving = all(b <= 0.5 * a for a, b in zip(route_devs, route_devs[1:]))
    ok = dev_sig <= 1e-9 and halving and dil_dev <= 1e-10 and spread <= 0.10
    report(6, "extension: signature match, uniqueness, dilation, stable constant", ok,
           f"sig {dev_sig:.1e}, routes {' > '.join(f'{x:.1e}' for x in route_devs)}, "
           f"dil {dil_dev:.1e}, spread {spread:.3f}")


def test_criterion_07_integral_maps():
    rng = np.random.default_rng(13)
    s4 = tensor_system("nilpotent", 2, 4)
    b2 = tensor_system("butcher", 2, 2)
    b3 = tensor_system("butcher", 2, 3)
    worst_w = max(
        double_split_residual(random_grouplike(s4, rng), random_grouplike(s4, rng))
        for _ in range(100)
    )
    worst_wp = max(
        double_split_residual(
            random_grouplike(s4, rng), random_grouplike(s4, rng), primed=True
        )
        for _ in range(100)
    )
    worst_b = max(
        double_split_residual(random_character(b2, rng), random_character(b2, rng))
        for _ in range(100)
    )
    worst_bp = max(
        double_split_residual(
            random_character(b3, rng), random_character(b3, rng), primed=True
        )
        for _ in range(100)
    )
    worst_iter = 0.0
    for factors in (2, 3, 4):
        a = random_grouplike(s4, rng)
        worst_iter = max(
            worst_iter,
            (iterated_integral_map(a, factors) - iterated_integral_closed(a, factors)).max_abs(),
        )
    ok = max(worst_w, worst_wp, worst_b, worst_bp) <= 1e-11 and worst_iter <= 1e-12
    report(7, "splitting laws for the integral maps and the iterated closed form",
           ok, f"laws {max(worst_w, worst_wp, worst_b, worst_bp):.2e}, iterated {worst_iter:.2e}")


def test_criterion_08_dominated_algebra():
    rng = np.random.default_rng(17)
    norms = []
    trace_dev = 0.0
    for N in (9, 17):
        pts = np.stack([np.linspace(0, 1, N) + 0.2 * np.sin(np.linspace(0, 3, N)),
                        np.cos(np.linspace(0, 2, N)) * 0.5], axis=1)
        g = signature_piecewise_linear(pts, 2, times=np.linspace(0, 1, N))
        om = control_from_pvar(g, 2.0)
        d = coordinate_coupling(g, om, theta=1.5, p=2.0)
        pr = product(d, d)
        expect = np.einsum("ni,nj->nij", d.trace, d.trace).reshape(N, -1)
        trace_dev = max(trace_dev, float(np.abs(pr.trace - expect).max()))
        rep_in = slowly_varying_certificate(d.form, g, om, 1.5, 2.0)
        rep_out = slowly_varying_certificate(pr.form, g, pr.omega, pr.theta, 2.0)
        norms.append(rep_out.beta_norm / max(rep_in.beta_norm**2, 1e-12))
    stable = 0.5 <= norms[1] / norms[0] <= 2.0

    # sums and scalar multiples of the rough integral of the golden one-form
    # along the golden walk: each is the sewn integral of its own form, the
    # slowly-varying norm is homogeneous and satisfies the triangle inequality
    times, pts = serialize.read_csv_path((GOLDEN_DIR / "walk.csv").read_text())
    f = serialize.one_form_from_obj(json.loads((GOLDEN_DIR / "form2.json").read_text()))
    g = signature_piecewise_linear(pts, 2, times=times)
    form = RoughOneForm(f, g, 2.0)
    y = DominatedPath.from_form(g, form, control_from_pvar(g, 2.0), form.theta, 2.0)
    scaled = -2.0 * y
    summed = y + scaled

    resew_dev = 0.0
    for d in (scaled, summed):
        resewn = DominatedPath.from_form(g, d.form, d.omega, d.theta, d.p)
        resew_dev = max(resew_dev, float(np.abs((resewn.trace - resewn.trace[0]) - (d.trace - d.trace[0])).max()))
    n_y, n_scaled, n_summed = (
        slowly_varying_certificate(d.form, d.base, d.omega, d.theta, d.p).beta_norm for d in (y, scaled, summed)
    )
    homogeneous = abs(n_scaled - 2.0 * n_y) <= 1e-12 * 2.0 * n_y
    ok = trace_dev <= 1e-9 and stable and resew_dev <= 1e-12 and homogeneous and n_summed <= n_y + n_scaled
    report(8, "product trace is the tensor of traces; operator-norm bound stable; sums and multiples",
           ok, f"trace dev {trace_dev:.2e}, C ratio {norms[1] / norms[0]:.2f}, re-sewn {resew_dev:.1e}, "
               f"norms {n_summed:.2f} <= {n_y:.2f} + {n_scaled:.2f}")


def test_criterion_09_composition():
    # exactness at [p] = 3: the kernel's Taylor and joint-projection terms
    # close for quadratic and cubic outer functions
    N = 33
    ts = np.linspace(0.0, 1.0, N)
    xs = ts + 0.4 * np.sin(2.0 * ts)
    g3 = signature_piecewise_linear(xs[:, None], 3, times=ts)
    om3 = control_from_pvar(g3, 3.0)
    X = coordinate_coupling(g3, om3, theta=4.0 / 3.0, p=3.0)
    fsq = LipFunction.from_polynomial(
        [np.zeros(1), np.zeros((1, 1)), 2.0 * np.ones((1, 1, 1))], gamma=4.0
    )
    fcub = LipFunction.from_polynomial(
        [np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1, 1)), 6.0 * np.ones((1, 1, 1, 1))],
        gamma=4.0,
    )
    dev = 0.0
    for f, truth in ((fsq, X.trace[:, 0] ** 2), (fcub, X.trace[:, 0] ** 3)):
        out = compose(X, f)
        dev = max(dev, float(np.abs(out.trace[:, 0] - truth).max()))

    # theta-hat on the [p] = 2 route, with gamma/p the binding term of the
    # min: the composed remainder must decay at least that fast
    N2 = 65
    ts2 = np.linspace(0.0, 1.0, N2)
    xs2 = ts2 + 0.4 * np.sin(2.0 * ts2)
    g2 = signature_piecewise_linear(xs2[:, None], 2, times=ts2)
    om2 = control_from_pvar(g2, 2.0)
    f3 = LipFunction.from_polynomial(_cubic_arrays(), gamma=2.0)
    X2 = DominatedPath.from_form(g2, RoughOneForm(f3, g2, p=2.0), om2, 1.5, 2.0)
    fsq24 = LipFunction.from_polynomial(
        [np.zeros(1), np.zeros((1, 1)), 2.0 * np.ones((1, 1, 1))], gamma=2.4
    )
    out2 = compose(X2, fsq24)
    theta_hat = min(1.5, fsq24.gamma / 2.0, 3.0 / 2.0)
    ok_theta = np.isclose(out2.theta, theta_hat)
    slope = out2.result.local_slope()
    ok = dev <= 1e-8 and ok_theta and slope >= theta_hat - 0.1
    report(9, "composition reproduces f(X) and the theta-hat exponent",
           ok, f"dev {dev:.2e}, theta_hat {out2.theta:.2f}, slope {slope:.2f}")


def test_criterion_10_transitivity():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(9, 2)).cumsum(axis=0) * 0.4
    g = signature_piecewise_linear(pts, 2, times=np.linspace(0, 1, 9))
    om = control_from_pvar(g, 2.0)
    d = coordinate_coupling(g, om, theta=1.5, p=2.0)
    enh = enhance(d)
    mult = enh.multiplicativity_residual()
    gamma_path = enh.as_sampled_path()
    om_g = control_from_pvar(gamma_path, 2.0)
    outer_base = coordinate_coupling(gamma_path, om_g, theta=1.5, p=2.0)
    outer = iterated_integral(outer_base, outer_base)
    reb = rebase(outer, enh)
    direct = iterated_integral(d, d)
    dev = float(np.abs(reb.trace - direct.trace).max())
    ok = dev <= 1e-8 and mult <= 1e-10
    report(10, "rebased iterated integral equals the direct one; enhancement multiplicative",
           ok, f"dev {dev:.2e}, mult {mult:.2e}")


def test_criterion_11_rough_integration():
    ts = np.linspace(0.0, 1.0, 65)
    g = signature_piecewise_linear(ts[:, None], 4, times=ts)
    f = LipFunction.from_polynomial(
        [np.zeros((1, 1)), np.ones((1, 1, 1))], gamma=2.0
    )
    Y = rough_integrate(f, g, p=2.0)
    v1, t1 = oracles.quadrature_iterated_integral(ts[:, None], (1, 1), mesh=512, times=ts)
    dev1 = abs(Y.values[-1].levels[1][0] - 0.5)
    dev2 = abs(Y.values[-1].levels[2][0] - 0.125)
    # the degree-one value is the double integral of x dx; oracle cross-check
    assert abs(v1 - 0.5) <= t1

    lam = 0.37
    b1 = tensor_system("butcher", 1, 2)
    dot = (trees.tree(1),)
    ladd = (trees.tree(1, (trees.tree(1),)),)
    pair = (trees.tree(1), trees.tree(1))
    incs = []
    for j in range(64):
        dt = ts[j + 1] - ts[j]
        v = b1.zero()
        v.levels[0][0] = 1.0
        v.levels[1][b1.forest_position(1, dot)] = dt
        v.levels[2][b1.forest_position(2, pair)] = dt * dt
        v.levels[2][b1.forest_position(2, ladd)] = dt * dt / 2 + lam * dt
        incs.append(v)
    gb = path_from_increments(b1, ts, incs)
    Yb = rough_integrate(f, gb, p=2.0)
    devb = abs(Yb.values[-1].levels[1][0] - (0.5 + lam))
    ok = dev1 <= 1e-9 and dev2 <= 1e-9 and devb <= 1e-8
    report(11, "rough integration values 1/2 and 1/8; branched variant vs model",
           ok, f"level1 {dev1:.1e}, level2 {dev2:.1e}, branched {devb:.1e}")


def test_criterion_12_pvariation_dp():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        pts = rng.normal(size=(10, 1))
        path = signature_piecewise_linear(pts, 2)
        dist = path.increment_norms()
        p = float(rng.uniform(1.0, 3.0))
        dp = p_variation(path, p)
        brute = oracles.exhaustive_pvariation(lambda i, j: dist[i, j], 10, p)
        worst = max(worst, abs(dp - brute))
    report(12, "p-variation DP equals exhaustive enumeration (100 trials)",
           worst <= 1e-12, f"max gap {worst:.1e}")


def test_criterion_13_integration_by_parts_dichotomy():
    ts = np.linspace(0.0, 1.0, 17)
    g = signature_piecewise_linear(ts[:, None], 2, times=ts)
    om = control_from_pvar(g, 2.0)
    d = coordinate_coupling(g, om, theta=1.5, p=2.0)
    it = iterated_integral(d, d)
    pr = product(d, d)
    sym = 2.0 * (it.trace - it.trace[0])[:, 0]
    direct = (pr.trace - pr.trace[0])[:, 0]
    dev_word = float(np.abs(sym - direct).max())

    lam = 0.4
    b1 = tensor_system("butcher", 1, 2)
    dot = (trees.tree(1),)
    ladd = (trees.tree(1, (trees.tree(1),)),)
    pair = (trees.tree(1), trees.tree(1))
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
    defect = float(
        np.abs(2.0 * (itb.trace - itb.trace[0])[:, 0] - (prb.trace - prb.trace[0])[:, 0]).max()
    )
    ok = dev_word <= 1e-9 and defect > 1e-2
    report(13, "integration-by-parts holds for words, fails for branched data",
           ok, f"word {dev_word:.1e}, branched defect {defect:.3f}")


def test_criterion_14_cli_determinism(tmp_path):
    from cocycle.cli import main as cli_main

    ts = np.linspace(0.0, 1.0, 9)
    xs = ts + 0.3 * np.sin(2 * ts)
    csv = tmp_path / "w.csv"
    csv.write_text("t,x1\n" + "\n".join(f"{t},{x}" for t, x in zip(ts, xs)) + "\n")
    form = tmp_path / "form.json"
    form.write_text(json.dumps({
        "d": 1, "target_dim": 1, "degree": 1, "gamma": 2.0,
        "derivatives": [[[0.0]], [[[1.0]]]],
    }))
    func = tmp_path / "func.json"
    func.write_text(json.dumps({
        "in_dim": 1, "out_dim": 1, "degree": 2, "gamma": 3.0,
        "derivatives": [[0.0], [[0.0]], [[[2.0]]]],
    }))

    def run(args):
        buf = io.StringIO()
        old = sys.stdout
        sys.stdout = buf
        try:
            code = cli_main(args)
        finally:
            sys.stdout = old
        assert code == 0, args
        return buf.getvalue()

    sig = run(["signature", "--depth", "2", str(csv)])
    sig_file = tmp_path / "sig.json"
    sig_file.write_text(sig)
    commands = [
        ["signature", "--depth", "2", str(csv)],
        ["pvar", "--p", "2", str(csv)],
        ["extend", "--to-level", "3", "--p", "1.5", str(sig_file)],
        ["integrate", "--form", str(form), "--p", "2", str(csv)],
        ["iterate", "--form", str(form), "--form2", str(form), "--p", "2", str(csv)],
        ["product", "--form", str(form), "--form2", str(form), "--p", "2", str(csv)],
        ["compose", "--form", str(form), "--f", str(func), "--p", "2", str(csv)],
        ["enhance", "--form", str(form), "--p", "2", str(csv)],
        ["certify", "--form", str(form), "--p", "2", str(csv)],
    ]
    ok = True
    for cmd in commands:
        outs = [run(cmd) for _ in range(3)]
        ok = ok and outs[0] == outs[1] == outs[2]
    report(14, "byte-identical CLI output across repeated runs", ok)


def test_criterion_15_time_varying_one_form():
    # F_t = (1 + h(t)) F for the golden one-form F, along (cos 2t, sin 3t), t in [0, 1]:
    # the sewn integral against the left Riemann-Stieltjes sum of a fine refinement
    obj = json.loads((GOLDEN_DIR / "form2.json").read_text())
    arrays = [np.asarray(a, dtype=float) for a in obj["derivatives"]]
    p = 2.0
    theta = (min(obj["gamma"], np.floor(p)) + 1.0) / p

    def curve(t):
        return np.stack([np.cos(2.0 * t), np.sin(3.0 * t)], axis=1)

    def h(t):
        return 0.5 * np.sin(5.0 * t)

    def scaled_form(c):
        return LipFunction.from_polynomial([c * a for a in arrays], gamma=obj["gamma"])

    fine = np.linspace(0.0, 1.0, 2**16 + 1)
    x = curve(fine)
    F = arrays[0] + np.einsum("mik,rk->rmi", arrays[1], x[:-1] - x[0])  # F(x - x_0), row by row
    riemann = np.einsum("r,rmi,ri->m", 1.0 + h(fine[:-1]), F, np.diff(x, axis=0))

    devs = []
    for N in (65, 257, 1025):
        ts = np.linspace(0.0, 1.0, N)
        g = signature_piecewise_linear(curve(ts), 2, times=ts)
        omega = control_from_pvar(g, p)
        form = mixed_one_form(scaled_form, 1.0 + h(ts), g, p, omega, theta)
        d = DominatedPath.from_form(g, form, omega, theta, p)
        devs.append(float(np.abs(d.trace[-1] - d.trace[0] - riemann).max()))
        if N == 65:
            worst = form.time_variation_report()["worst"]  # {order l: (quotient, pair)}
    finite = sorted(worst) == list(range(int(p))) and all(np.isfinite(q) for q, _ in worst.values())
    cuts = [a / b for a, b in zip(devs, devs[1:])]
    ok = finite and min(cuts) >= 3.0
    report(15, "time-varying one-form: sewn integral converges to the Riemann-Stieltjes sum",
           ok, f"deviations {', '.join(f'{d:.1e}' for d in devs)}, cuts {', '.join(f'{c:.2f}' for c in cuts)}")
