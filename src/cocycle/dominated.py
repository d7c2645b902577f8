"""Dominated paths and their stability operations.

A dominated path couples a flat-space path to a group path through a
slowly-varying cocyclic one-form: the trace is the sewn integral of the form.
The calculus below realises each stability operation as an explicit one-form
construction followed by sewing:

* :func:`iterated_integral` -- the running integral of one dominated path
  against another (needs the two-factor integral map);
* :func:`product` -- pointwise tensor products (needs joint projections);
* :func:`compose` -- composition with a Lip(gamma) function, gamma > p;
* :func:`enhance` -- the canonical group-valued lift, level by level;
* :func:`rebase` -- transitivity: paths dominated by an enhancement are
  dominated by the original base;
* :func:`rough_integrate` -- rough integration of a Lip(gamma) one-form,
  gamma > p - 1, with its group enhancement;
* weakly controlled paths and their iterated integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import trees
from .algebra import ForestSystem, GradedTensor, HopfSystem, tensor_system
from .maps import (
    ProductTensor,
    _degree_tuples,
    _double_block_matrices,
    double_integral,
    level_one_integral,
)
from .one_forms import (
    AlgebraTarget,
    BranchedRoughOneForm,
    CallableForm,
    CertificateError,
    FlatTarget,
    FormSum,
    LipFunction,
    RecenteredForm,
    RoughOneForm,
    SlowVaryingReport,
    TimeVaryingOneForm,
    apply_matrices,
    column_norms,
    slowly_varying_certificate,
)
from .paths import Control, SampledGroupPath, control_from_pvar, grid_triples, vector_p_variation
from .sewing import SewingResult, sew


@dataclass
class DominatedPath:
    """A coupling (base path, one-form, initial value) with its sewn trace."""

    base: SampledGroupPath
    form: TimeVaryingOneForm
    h0: np.ndarray
    trace: np.ndarray  # (N, dim)
    omega: Control
    theta: float
    p: float
    result: SewingResult | None = None
    certificate: SlowVaryingReport | None = None
    _matrices: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_form(
        cls,
        base: SampledGroupPath,
        form: TimeVaryingOneForm,
        omega: Control,
        theta: float,
        p: float,
        h0=None,
        schedule: str = "ltr",
        check: bool = False,
    ) -> "DominatedPath":
        if not isinstance(form.target, FlatTarget):
            raise ValueError("dominated paths take values in a flat space")
        h0 = np.zeros(form.target.dim) if h0 is None else np.asarray(h0, dtype=float)
        res = sew(form, base, omega, theta, schedule=schedule, check=check)
        trace = np.stack([h0 + v for v in res.values])
        return cls(base, form, h0, trace, omega, theta, p, result=res)

    @property
    def dim(self) -> int:
        return self.trace.shape[1]

    def increment(self, s: int, t: int) -> np.ndarray:
        return self.trace[t] - self.trace[s]

    def base_matrices(self, s: int, degrees) -> dict:
        """``{k: matrix of v_k -> beta_s(g_s, v_k)}``, kept per (s, k): the base never changes."""
        out = {}
        for k in degrees:
            M = self._matrices.get((s, k))
            if M is None:
                M = self._matrices[(s, k)] = self.form.base_matrix(self.base, s, k)
            out[k] = M
        return out

    def certify(self) -> SlowVaryingReport:
        report = slowly_varying_certificate(self.form, self.base, self.omega, self.theta, self.p)
        self.certificate = report
        return report

    def remainder_quotient(self) -> float:
        """sup |h_t - h_s - beta_s(g_s, g_{s,t})| / w(s,t)^theta over pairs."""
        N = len(self.base)
        worst = 0.0
        for s in range(N - 1):
            later = np.arange(s + 1, N)
            ones = self.form.eval_rows(self.base, s, s, self.base.increments(s, later))
            devs = np.abs((self.trace[later] - self.trace[s]) - ones).sum(axis=-1)
            for t, dev in zip(later.tolist(), devs.tolist()):
                w = self.omega(s, t)
                if w <= 0:
                    continue
                worst = max(worst, dev / w**self.theta)
        return worst

    def p_variation(self) -> float:
        return vector_p_variation(self.trace, self.p)

    def __add__(self, other: "DominatedPath") -> "DominatedPath":
        if other.base is not self.base or other.dim != self.dim:
            raise ValueError("can only add couplings over the same base and space")
        return DominatedPath(
            self.base,
            FormSum([self.form, other.form]),
            self.h0 + other.h0,
            self.trace + other.trace,
            self.omega + other.omega,
            min(self.theta, other.theta),
            self.p,
        )

    def __rmul__(self, c: float) -> "DominatedPath":
        scaled = CallableForm(
            self.form.times, self.form.domain, self.form.target,
            lambda s, a, v: c * self.form.eval(s, a, v),
        )
        return DominatedPath(
            self.base, scaled, c * self.h0, c * self.trace, self.omega, self.theta, self.p
        )


def coordinate_coupling(base: SampledGroupPath, omega: Control, theta: float, p: float) -> DominatedPath:
    """The degree-one trace of the base path, as a dominated path."""
    dom = base.system
    target = FlatTarget(dom.dim(1))

    def fn(s, a, v):
        w = dom.mul(a, v - v.scalar() * dom.unit())
        return np.array(w.levels[1])

    form = CallableForm(base.times, dom, target, fn, base_path=base)
    trace = base.levels[1].copy()
    res = sew(form, base, omega, theta, check=False)
    return DominatedPath(base, form, trace[0], trace, omega, theta, p, result=res)


def _pair_kernel(split: ProductTensor, mats1: dict, mats2: dict) -> np.ndarray:
    """Contract a two-factor split with per-degree form matrices."""
    m1 = next(iter(mats1.values())).shape[0]
    m2 = next(iter(mats2.values())).shape[0]
    out = np.zeros((m1, m2))
    for (j1, j2), arr in split.blocks.items():
        M1, M2 = mats1.get(j1), mats2.get(j2)
        if M1 is None or M2 is None:
            continue
        out += M1 @ arr @ M2.T
    return out


def iterated_integral(
    d1: DominatedPath, d2: DominatedPath, schedule: str = "ltr", check: bool = False
) -> DominatedPath:
    """The running integral of d1 against d2 as a new dominated path.

    Increment kernel: trace increment of d1 from time 0 tensored with the d2
    one-step, plus both forms contracted against the two-factor integral
    split of the recentered direction.
    """
    if d1.base is not d2.base:
        raise ValueError("iterated integration needs a shared base path")
    base = d1.base
    degrees = range(1, base.system.n + 1)
    mats1 = [d1.base_matrices(s, degrees) for s in range(len(base))]
    mats2 = [d2.base_matrices(s, degrees) for s in range(len(base))]
    target = FlatTarget(d1.dim * d2.dim)

    def fn(s, a, v):
        c = base.recenter(s, a, v)
        lead = np.outer(d1.increment(0, s), apply_matrices(mats2[s], c, d2.dim))
        split = double_integral(c)
        return (lead + _pair_kernel(split, mats1[s], mats2[s])).reshape(-1)

    form = CallableForm(base.times, base.system, target, fn, base_path=base)
    omega = d1.omega + d2.omega + control_from_pvar(base, d1.p)
    theta = min(d1.theta, d2.theta)
    return DominatedPath.from_form(base, form, omega, theta, d1.p, schedule=schedule, check=check)


def product(
    d1: DominatedPath, d2: DominatedPath, schedule: str = "ltr", check: bool = False
) -> DominatedPath:
    """Pointwise tensor product of two dominated paths over the same base.

    The one-form keeps the three summands (left increment, right increment,
    joint-projection correction) accessible via ``form.summands``.
    """
    if d1.base is not d2.base:
        raise ValueError("products need a shared base path")
    base = d1.base
    hp = base.system.n
    degrees = range(1, hp + 1)
    mats1 = [d1.base_matrices(s, degrees) for s in range(len(base))]
    mats2 = [d2.base_matrices(s, degrees) for s in range(len(base))]
    target = FlatTarget(d1.dim * d2.dim)

    # the three summands, each read off the recentred direction c
    def eta1(s, c):
        return np.outer(apply_matrices(mats1[s], c, d1.dim), d2.trace[s]).reshape(-1)

    def eta2(s, c):
        return np.outer(d1.trace[s], apply_matrices(mats2[s], c, d2.dim)).reshape(-1)

    def eta3(s, c):
        out = np.zeros((d1.dim, d2.dim))
        for k1 in range(1, hp):
            for k2 in range(1, hp - k1 + 1):
                arr = base.system.block_tuple_tensor((k1, k2), c)
                out += mats1[s][k1] @ arr @ mats2[s][k2].T
        return out.reshape(-1)

    summands = tuple(
        CallableForm(
            base.times, base.system, target,
            lambda s, a, v, f=f: f(s, base.recenter(s, a, v)), base_path=base,
        )
        for f in (eta1, eta2, eta3)
    )

    def fn(s, a, v):
        c = base.recenter(s, a, v)
        return eta1(s, c) + eta2(s, c) + eta3(s, c)

    form = CallableForm(base.times, base.system, target, fn, summands=summands, base_path=base)
    omega = d1.omega + d2.omega + control_from_pvar(base, d1.p)
    theta = min(d1.theta, d2.theta)
    out = DominatedPath.from_form(
        base, form, omega, theta, d1.p,
        h0=np.outer(d1.trace[0], d2.trace[0]).reshape(-1),
        schedule=schedule, check=check,
    )
    return out


def compose(
    d: DominatedPath, f: LipFunction, schedule: str = "ltr", check: bool = False
) -> DominatedPath:
    """f(X_t) - f(X_0) as a dominated path, for gamma > p.

    The form Taylor-expands f at the running trace value and pushes the
    joint-projection images of the direction through tensor powers of the
    coupling form.  f is used rescaled to unit Lipschitz norm, the scale being
    restored on the output.
    """
    if f.gamma <= d.p:
        raise CertificateError(f"composition needs gamma > p, got {f.gamma} <= {d.p}")
    if f.in_dim != d.dim:
        raise ValueError("function domain does not match the path dimension")
    base = d.base
    hp = base.system.n
    degrees = range(1, hp + 1)
    mats = [d.base_matrices(s, degrees) for s in range(len(base))]
    wdim = int(np.prod(f.out_shape))
    target = FlatTarget(wdim)
    radius = float(np.abs(d.trace).max())
    scale = f.lip_bound(radius) if f.lip_bound_fn is not None else 1.0
    if scale <= 0:
        scale = 1.0

    tuples_by_l = {l: list(_degree_tuples(l, hp)) for l in range(1, hp + 1)}

    def fn(s, a, v):
        c = base.recenter(s, a, v)
        X = d.trace[s]
        out = np.zeros(wdim)
        for l in range(1, hp + 1):
            D = f.deriv(l, X).reshape(wdim, -1) / scale  # (w, u^l)
            block = None
            for ks in tuples_by_l[l]:
                arr = base.system.block_tuple_tensor(tuple(ks), c)
                cur = arr
                for i, k in enumerate(ks):
                    cur = np.tensordot(mats[s][k], cur, axes=([1], [i]))
                    cur = np.moveaxis(cur, 0, i)
                block = cur if block is None else block + cur
            if block is None:
                continue
            out = out + (D @ block.reshape(-1)) / math.factorial(l)
        return scale * out

    form = CallableForm(base.times, base.system, target, fn, base_path=base)
    omega = d.omega + control_from_pvar(base, d.p)
    theta_hat = min(d.theta, f.gamma / d.p, (hp + 1) / d.p)
    out = DominatedPath.from_form(
        base, form, omega, theta_hat, d.p,
        h0=f.deriv(0, d.trace[0]).reshape(-1),
        schedule=schedule, check=check,
    )
    return out


# -- enhancement and transitivity ---------------------------------------------------


@dataclass
class GroupEnhancement:
    """Iterated-integral lift of a dominated path into 1 + U + ... + U^{[p]}."""

    source: DominatedPath
    system: HopfSystem  # word system over dim(U) at level [p]
    values: list  # GradedTensor per grid time
    result: SewingResult
    level_matrices: list  # per s: {level: {degree: matrix}}

    def as_sampled_path(self) -> SampledGroupPath:
        return SampledGroupPath(self.system, self.source.base.times, self.values)

    def pair_value(self, s: int, t: int) -> GradedTensor:
        return self.system.mul(self.system.inverse(self.values[s]), self.values[t])

    def multiplicativity_residual(self, samples: int = 64, seed: int = 0) -> float:
        rng = np.random.default_rng(seed)
        N = len(self.values)
        if N < 3:  # no triples
            return 0.0
        worst = 0.0
        for _ in range(samples):
            s, u, t = sorted(rng.choice(N, size=3, replace=False))
            lhs = self.system.mul(self.pair_value(s, u), self.pair_value(u, t))
            rhs = self.pair_value(s, t)
            worst = max(worst, max(float(np.abs(a - b).max()) for a, b in zip(lhs.levels, rhs.levels)))
        return worst

    def window_matrices(self, s: int, t: int) -> dict:
        """B_{s,t}: the ladder one-form of the window, by the level recursion."""
        return _ladder(
            self.source.base.system, dict(self.level_matrices[t][1]), self.system.n,
            self.pair_value(s, t),
        )


def _ladder(system: HopfSystem, B: dict, hp: int, x: GradedTensor | None = None) -> dict:
    """Per-level, per-degree matrices ``{level: {degree: M}}`` of a ladder one-form.

    Level 1 is ``B``; level l pairs level l-1 with ``B`` through the
    two-factor split.  A window increment ``x`` adds the ``x_{l-1} (x) B``
    term of the window recursion.
    """
    dbl = {k: _double_block_matrices(system, k) for k in range(2, system.n + 1)}
    levels = {1: B}
    for lvl in range(2, hp + 1):
        cur: dict = {}
        for k in range(1, system.n + 1):
            acc = None
            if x is not None and B.get(k) is not None:
                acc = np.kron(x.levels[lvl - 1].reshape(-1, 1), B[k])
            for (j1, j2), M in dbl.get(k, {}).items():
                prev = levels[lvl - 1].get(j1)
                low = B.get(j2)
                if prev is None or low is None:
                    continue
                # kron(prev, low) expects the (j1, j2) split flattened
                # row-major, which is how the split matrices are built
                term = np.kron(prev, low) @ M
                acc = term if acc is None else acc + term
            if acc is not None:
                cur[k] = acc
        levels[lvl] = cur
    return levels


def _apply_ladder(out: GradedTensor, ladder: dict, c: GradedTensor) -> GradedTensor:
    """Add ``sum_k M_{l,k} pi_k(c)`` into level l of ``out`` for each ladder level l."""
    for lvl, per_deg in ladder.items():
        for k, M in per_deg.items():
            out.levels[lvl][:] += M @ c.levels[k]
    return out


def enhance(d: DominatedPath, schedule: str = "ltr") -> GroupEnhancement:
    """Build the group-valued lift by sewing the level-stacked one-form."""
    base = d.base
    hp = base.system.n
    enh_system = tensor_system("nilpotent", d.dim, hp)
    degrees = range(1, hp + 1)
    level_matrices = [
        _ladder(base.system, d.base_matrices(s, degrees), hp) for s in range(len(base))
    ]

    def fn(s, a, v):
        c = base.recenter(s, a, v)
        return _apply_ladder(v.scalar() * enh_system.unit(), level_matrices[s], c)

    form = CallableForm(base.times, base.system, AlgebraTarget(enh_system), fn, base_path=base)
    res = sew(form, base, d.omega, d.theta, schedule=schedule, check=False)
    return GroupEnhancement(d, enh_system, res.values, res, level_matrices)


def rebase(
    outer: DominatedPath, enhancement: GroupEnhancement, schedule: str = "ltr"
) -> DominatedPath:
    """Re-express a path dominated by an enhancement as dominated by its base.

    The new form reads the enhancement's one-step ladder in the recentered
    direction and feeds it to the outer form at the accumulated enhancement
    value.
    """
    gamma_path = enhancement.as_sampled_path()
    if not np.array_equal(outer.base.times, gamma_path.times):
        raise ValueError("outer coupling does not live over this enhancement")
    if max(float(np.abs(x - y).max()) for x, y in zip(outer.base.levels, gamma_path.levels)) > 1e-9:
        raise ValueError("outer coupling does not live over this enhancement")
    base = enhancement.source.base
    enh_system = enhancement.system
    target = outer.form.target

    def fn(s, a, v):
        c = base.recenter(s, a, v)
        w = _apply_ladder(enh_system.zero(), enhancement.level_matrices[s], c)
        return outer.form.eval(s, enhancement.values[s], w)

    form = CallableForm(base.times, base.system, target, fn, base_path=base)
    omega = outer.omega + enhancement.source.omega + control_from_pvar(base, enhancement.source.p)
    theta = min(outer.theta, enhancement.source.theta)
    return DominatedPath.from_form(
        base, form, omega, theta, enhancement.source.p,
        h0=outer.h0, schedule=schedule, check=False,
    )


def rough_integrate(
    f: LipFunction,
    base: SampledGroupPath,
    p: float,
    omega: Control | None = None,
    schedule: str = "ltr",
) -> GroupEnhancement:
    """Rough integration of a Lip(gamma) one-form, gamma > p - 1, with lift.

    Returns the group enhancement whose degree-one trace is the integral; the
    sewn result's local estimates give the almost-multiplicative comparison.
    """
    if isinstance(base.system, ForestSystem):
        form = BranchedRoughOneForm(f, base, p)
    else:
        form = RoughOneForm(f, base, p)
    if omega is None:
        omega = control_from_pvar(base, p)
    d = DominatedPath.from_form(base, form, omega, form.theta, p, schedule=schedule)
    return enhance(d, schedule=schedule)


# -- weakly controlled paths ----------------------------------------------------------


@dataclass
class ControlledPath:
    """A trace plus a one-form over the degree-([p]-1) group, with certificate."""

    base: SampledGroupPath  # at level [p]
    low: SampledGroupPath  # the same path truncated to level [p]-1
    trace: np.ndarray
    coeff_fn: object  # s -> {degree: (dim_U, dim_k) matrix}
    omega: Control
    theta: float
    p: float
    form: RecenteredForm = field(init=False, repr=False)

    def __post_init__(self):
        self.form = RecenteredForm(self.low, self.trace.shape[1], self.coeff_fn)

    @classmethod
    def from_coefficients(cls, base, trace, coeff_fn, omega, theta, p) -> "ControlledPath":
        hp = int(math.floor(p))
        if base.level != hp:
            raise ValueError("controlled paths expect the base at level [p]")
        lowsys = tensor_system(base.system.kind, base.d, hp - 1)
        low = SampledGroupPath(
            lowsys, base.times, [base.system.truncate(v, hp - 1) for v in base.values]
        )
        return cls(base, low, np.asarray(trace, dtype=float), coeff_fn, omega, theta, p)

    @classmethod
    def from_dominated(cls, d: DominatedPath) -> "ControlledPath":
        hp = int(math.floor(d.p))
        degrees = range(1, hp)
        mats = [d.base_matrices(s, degrees) for s in range(len(d.base))]
        return cls.from_coefficients(
            d.base, d.trace, lambda s: mats[s], d.omega, d.theta, d.p
        )

    @property
    def dim(self) -> int:
        return self.trace.shape[1]

    def certificate_norm(self) -> float:
        """The combined bound of the weak-control conditions (finite = pass)."""
        N = len(self.base)
        low, form = self.low, self.form
        degrees = range(1, int(math.floor(self.p)))
        times = np.arange(N)
        own = {k: form.probe_matrix(low, times, times, k) for k in degrees}
        worst_remainder = 0.0
        worst_var = 0.0
        sup_norm = 0.0
        for s in range(N):
            mats = form.matrices(s)
            sup_norm = max(sup_norm, max(float(np.abs(M).sum(axis=0).max()) for M in mats.values()))
        for s in range(N - 1):
            later = times[s + 1 :]
            ones = form.eval_rows(low, s, s, low.increments(s, later))
            devs = np.abs((self.trace[later] - self.trace[s]) - ones).sum(axis=-1).tolist()
            gaps = {
                k: column_norms(own[k][later] - form.probe_matrix(low, s, later, k)).max(axis=-1).tolist()
                for k in degrees
            }
            for i, t in enumerate(later.tolist()):
                w = self.omega(s, t)
                if w <= 0:
                    continue
                worst_remainder = max(worst_remainder, devs[i] / w ** (self.theta - 1.0 / self.p))
                for k in degrees:
                    expo = self.theta - (1 + k) / self.p
                    worst_var = max(worst_var, gaps[k][i] / w**expo)
        return sup_norm + worst_remainder + worst_var

    def increment(self, s: int, t: int) -> np.ndarray:
        return self.trace[t] - self.trace[s]


def controlled_iterated_integral(c1: ControlledPath, c2: ControlledPath):
    """The canonical integral of one weakly controlled path against another.

    Realised over the augmented path (second trace joined with the group
    path); the increment kernel pairs the running first trace with the second
    increment and both forms with the two-factor integral split.  Returns the
    trace and the measured integrable-condition data.
    """
    if c1.base is not c2.base:
        raise ValueError("controlled integration needs a shared base path")
    base = c1.base
    N = len(base)

    def kernel(s: int, c: GradedTensor) -> np.ndarray:
        split = double_integral(c)
        return _pair_kernel(split, c1.form.matrices(s), c2.form.matrices(s))

    trace = np.zeros((N, c1.dim * c2.dim))
    for j in range(N - 1):
        inc = base.increment(j, j + 1)
        lead = np.outer(c1.increment(0, j), c2.increment(j, j + 1))
        step = lead + kernel(j, base.recenter(j, base.values[j], inc))
        trace[j + 1] = trace[j] + step.reshape(-1)

    # integrable-condition residuals of the augmented one-form on triples
    worst = 0.0
    worst_triple = None
    for s, u, t in grid_triples(N):
        w = c1.omega(s, t)
        if w <= 0:
            continue
        inc = base.recenter(u, base.values[u], base.increment(u, t))
        lead_dev = np.outer(c1.increment(s, u), c2.increment(u, t))
        kern_dev = kernel(u, inc) - kernel(s, inc)
        dev = float(np.abs(lead_dev + kern_dev).max())
        q = dev / w ** min(c1.theta, (int(math.floor(c1.p)) + 1) / c1.p)
        if q > worst:
            worst, worst_triple = q, (s, u, t)
    return trace, {"ratio": worst, "worst_triple": worst_triple}


def integrate_controlled_against(
    c1: ControlledPath, d2: DominatedPath, schedule: str = "ltr"
) -> DominatedPath:
    """Integral of a weakly controlled path against a dominated path.

    The result is genuinely dominated by the shared base.
    """
    if c1.base is not d2.base:
        raise ValueError("needs a shared base path")
    base = c1.base
    degrees = range(1, base.system.n + 1)
    mats2 = [d2.base_matrices(s, degrees) for s in range(len(base))]
    target = FlatTarget(c1.dim * d2.dim)

    def fn(s, a, v):
        c = base.recenter(s, a, v)
        lead = np.outer(c1.increment(0, s), apply_matrices(mats2[s], c, d2.dim))
        split = double_integral(c)
        return (lead + _pair_kernel(split, c1.form.matrices(s), mats2[s])).reshape(-1)

    form = CallableForm(base.times, base.system, target, fn, base_path=base)
    omega = c1.omega + d2.omega + control_from_pvar(base, c1.p)
    theta = min(c1.theta, d2.theta, (base.system.n + 1) / c1.p)
    return DominatedPath.from_form(base, form, omega, theta, c1.p, schedule=schedule)


def integrate_controlled_against_level_one(c1: ControlledPath, schedule: str = "ltr"):
    """Integral of a controlled path against the degree-one trace of the base.

    Needs only the level-one split, so it applies to the forest system at any
    level.  Returns the trace (dim_U x d) on the grid.
    """
    base = c1.base
    N = len(base)
    d = base.d
    trace = np.zeros((N, c1.dim * d))
    for j in range(N - 1):
        inc = base.increment(j, j + 1)
        c = base.recenter(j, base.values[j], inc)
        split = level_one_integral(c)
        lead = np.outer(c1.increment(0, j), np.array(c.levels[1]))
        kern = _pair_kernel(split, c1.form.matrices(j), {1: np.eye(d)})
        trace[j + 1] = trace[j] + (lead + kern).reshape(-1)
    return trace


def step2_enhancement_of_controlled(c: ControlledPath) -> SampledGroupPath:
    """Canonical forest-group enhancement of a controlled path for [p] = 2.

    Single nodes carry the trace increments, two-node forests their products,
    and the grafted two-node trees the controlled integrals of one coordinate
    against another.
    """
    if int(math.floor(c.p)) != 2:
        raise ValueError("the canonical step-2 enhancement needs 2 <= p < 3")
    e = c.dim
    enh = tensor_system("butcher", e, 2)
    pair_trace, _ = controlled_iterated_integral(c, c)
    N = len(c.base)
    values = []
    for t in range(N):
        val = enh.zero()
        val.levels[0][0] = 1.0
        x = c.trace[t] - c.trace[0]
        for i in range(e):
            val.levels[1][enh.forest_position(1, (trees.tree(i + 1),))] = x[i]
        for i in range(e):
            for j in range(e):
                forest = trees.forest_concat((trees.tree(i + 1),), (trees.tree(j + 1),))
                val.levels[2][enh.forest_position(2, forest)] = x[i] * x[j]
                ladder = (trees.tree(i + 1, (trees.tree(j + 1),)),)
                # integral of coordinate j against coordinate i
                val.levels[2][enh.forest_position(2, ladder)] = pair_trace[t].reshape(e, e)[j, i]
        values.append(val)
    return SampledGroupPath(enh, c.base.times, values)
