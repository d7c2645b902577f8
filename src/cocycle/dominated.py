"""Dominated paths and their stability operations.

A dominated path couples a flat-space path to a group path through a
slowly-varying cocyclic one-form: the trace is the sewn integral of the form.
The calculus below realises each stability operation as an explicit one-form
construction followed by sewing.  Each new form is a recentred form whose
readout is linear in the recentred direction ``c = g_s^{-1} a (v - v_0)`` and
reads the old forms' per-time data (stacked base matrices, trace values,
Taylor derivatives) at the rows' grid times, all rows at once:

* :func:`iterated_integral` -- the running integral of one dominated path
  against another (needs the two-factor integral map);
* :func:`product` -- pointwise tensor products (needs joint projections);
* :func:`compose` -- composition with a Lip(gamma) function, gamma > p;
* :func:`enhance` -- the canonical group-valued lift, level by level;
* :func:`rebase` -- transitivity: paths dominated by an enhancement are
  dominated by the original base;
* :func:`rough_integrate` -- rough integration of a Lip(gamma) one-form,
  gamma > p - 1, with its group enhancement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import ForestSystem, GradedTensor, HopfSystem, tensor_system
from .maps import _degree_tuples, _double_block_matrices, double_split_blocks
from .one_forms import (
    AlgebraTarget,
    BranchedRoughOneForm,
    CertificateError,
    FlatTarget,
    FormSum,
    LipFunction,
    RecenteredForm,
    RoughOneForm,
    TimeVaryingOneForm,
    pair_quotients,
    read_matrices,
)
from .paths import Control, SampledGroupPath, control_from_pvar, sup_quotient
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
        trace = h0 + res.prefixes
        return cls(base, form, h0, trace, omega, theta, p, result=res)

    @property
    def dim(self) -> int:
        return self.trace.shape[1]

    def base_matrices(self, degrees) -> dict:
        """``{k: (N, dim, dim_k)}``: the matrices of v_k -> beta_s(g_s, v_k) for every grid time.

        One probe per degree, kept: the base never changes.
        """
        out = {}
        for k in degrees:
            M = self._matrices.get(k)
            if M is None:
                times = np.arange(len(self.base))
                M = self._matrices[k] = self.form.probe_matrix(self.base, times, times, k)
            out[k] = M
        return out

    def remainder_quotient(self) -> float:
        """sup |h_t - h_s - beta_s(g_s, g_{s,t})| / w(s,t)^theta over pairs."""
        return sup_quotient(pair_quotients(self.form, self.base, self.omega, [self.theta], {}, self.trace))[0]

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
        form = self.form
        if not isinstance(form, RecenteredForm):
            raise ValueError("scaling needs a recentred form")
        scaled = RecenteredForm(form.base_path, form.target, readout=lambda s, x: c * form.readout(s, x))
        return DominatedPath(
            self.base, scaled, c * self.h0, c * self.trace, self.omega, self.theta, self.p
        )


def coordinate_coupling(base: SampledGroupPath, omega: Control, theta: float, p: float) -> DominatedPath:
    """The degree-one trace of the base path, as a dominated path: M_1 = identity."""
    dim = base.system.dim(1)
    form = RecenteredForm(base, dim, {1: np.broadcast_to(np.eye(dim), (len(base), dim, dim))})
    trace = base.levels[1].copy()
    res = sew(form, base, omega, theta, check=False)
    return DominatedPath(base, form, trace[0], trace, omega, theta, p, result=res)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.outer`` of the last axes, row by row."""
    return x[..., :, None] * y[..., None, :]


def _split(system: HopfSystem, c) -> list:
    """The blocks ``((j1, j2), (..., dim_j1, dim_j2))`` of the two-factor integral
    split (``double_split_blocks``) on stacked levels."""
    return [item for k in range(2, system.n + 1) for item in double_split_blocks(system, k, c[k]).items()]


def _pair_kernel(blocks, mats1: dict, mats2: dict, s, shape: tuple) -> np.ndarray:
    """Contract two-factor split blocks with stacked per-time form matrices, row by row.

    Each row is ``sum M1[s] @ block @ M2[s].T`` over the blocks whose degrees
    both forms have; ``shape`` is the leading shape of the rows.
    """
    m1 = next(iter(mats1.values())).shape[-2]
    m2 = next(iter(mats2.values())).shape[-2]
    out = np.zeros(shape + (m1, m2))
    for (j1, j2), arr in blocks:
        if j1 in mats1 and j2 in mats2:
            out = out + np.matmul(np.matmul(mats1[j1][s], arr), np.swapaxes(mats2[j2][s], -1, -2))
    return out


def _iterated_readout(system: HopfSystem, trace1: np.ndarray, mats1: dict, mats2: dict):
    """Increment kernel of a running integral: the first trace's increment from time 0
    tensored with the second form, plus both forms contracted against the two-factor
    split of the recentred direction."""
    dim2 = next(iter(mats2.values())).shape[-2]

    def readout(s, c):
        shape = c[0].shape[:-1]
        lead = _outer(trace1[s] - trace1[0], read_matrices(mats2, s, c, dim2))
        kern = _pair_kernel(_split(system, c), mats1, mats2, s, shape)
        return (lead + kern).reshape(shape + (-1,))

    return readout


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
    readout = _iterated_readout(base.system, d1.trace, d1.base_matrices(degrees), d2.base_matrices(degrees))
    form = RecenteredForm(base, d1.dim * d2.dim, readout=readout)
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
    mats1, mats2 = d1.base_matrices(degrees), d2.base_matrices(degrees)
    dim = d1.dim * d2.dim

    # the three summands, each read off the recentred direction c
    def eta1(s, c):
        return _outer(read_matrices(mats1, s, c, d1.dim), d2.trace[s]).reshape(c[0].shape[:-1] + (dim,))

    def eta2(s, c):
        return _outer(d1.trace[s], read_matrices(mats2, s, c, d2.dim)).reshape(c[0].shape[:-1] + (dim,))

    def eta3(s, c):
        shape = c[0].shape[:-1]
        joint = [(ks, base.system.block_tuple_tensor(ks, c)) for ks in _degree_tuples(2, hp)]
        return _pair_kernel(joint, mats1, mats2, s, shape).reshape(shape + (dim,))

    form = RecenteredForm(base, dim, readout=lambda s, c: eta1(s, c) + eta2(s, c) + eta3(s, c))
    form.summands = tuple(RecenteredForm(base, dim, readout=eta) for eta in (eta1, eta2, eta3))
    omega = d1.omega + d2.omega + control_from_pvar(base, d1.p)
    theta = min(d1.theta, d2.theta)
    out = DominatedPath.from_form(
        base, form, omega, theta, d1.p,
        h0=np.outer(d1.trace[0], d2.trace[0]).reshape(-1),
        schedule=schedule, check=check,
    )
    return out


def _apply_factor(M: np.ndarray, cur: np.ndarray, i: int, nl: int) -> np.ndarray:
    """``np.moveaxis(np.tensordot(M, cur, axes=([1], [i])), 0, i)`` row by row.

    ``nl`` leading axes of ``M`` and ``cur`` batch; the contraction is the
    matrix product ``tensordot`` makes, axis i of the row moved first.
    """
    moved = np.moveaxis(cur, nl + i, nl)
    rest = moved.shape[nl + 1 :]
    out = np.matmul(M, moved.reshape(moved.shape[: nl + 1] + (-1,)))
    return np.moveaxis(out.reshape(out.shape[: nl + 1] + rest), nl, nl + i)


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
    mats = d.base_matrices(range(1, hp + 1))
    wdim = int(np.prod(f.out_shape))
    radius = float(np.abs(d.trace).max())
    scale = f.lip_bound(radius) if f.lip_bound_fn is not None else 1.0
    if scale <= 0:
        scale = 1.0

    tuples_by_l = {l: list(_degree_tuples(l, hp)) for l in range(1, hp + 1)}
    # the derivatives at the running trace values, one call per order
    N = len(d.trace)
    derivs = {l: f.deriv_rows(l, d.trace).reshape(N, wdim, -1) / scale for l in range(1, hp + 1)}  # (N, w, u^l)

    def readout(s, c):
        shape = c[0].shape[:-1]
        nl = len(shape)
        out = np.zeros(shape + (wdim,))
        for l in range(1, hp + 1):
            block = None
            for ks in tuples_by_l[l]:
                cur = base.system.block_tuple_tensor(ks, c)
                for i, k in enumerate(ks):
                    cur = _apply_factor(mats[k][s], cur, i, nl)
                block = cur if block is None else block + cur
            flat = block.reshape(shape + (-1,))
            out = out + np.matmul(derivs[l][s], flat[..., None])[..., 0] / math.factorial(l)
        return scale * out

    form = RecenteredForm(base, wdim, readout=readout)
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
    """Iterated-integral lift of a dominated path into 1 + U + ... + U^{[p]}.

    ``path`` is the sewn lift over the source's grid, in the word system over
    dim(U) at level [p]; ``values`` reads its rows as tensors, for per-row callers.
    """

    source: DominatedPath
    path: SampledGroupPath
    result: SewingResult
    level_matrices: dict  # {level: {degree: (N, dim_level, dim_k)}}, stacked over the grid

    @property
    def system(self) -> HopfSystem:
        return self.path.system

    @property
    def values(self) -> list:
        return self.path.values

    def as_sampled_path(self) -> SampledGroupPath:
        return self.path

    def pair_value(self, s: int, t: int) -> GradedTensor:
        return GradedTensor(self.system, self.path.increments(s, t))

    def multiplicativity_residual(self, samples: int = 64, seed: int = 0) -> float:
        """Largest coefficient of pair(s,u) pair(u,t) - pair(s,t) over sampled triples, read at once."""
        rng = np.random.default_rng(seed)
        N = len(self.path)
        if N < 3:  # no triples
            return 0.0
        s, u, t = np.array([sorted(rng.choice(N, size=3, replace=False)) for _ in range(samples)]).T
        path = self.path
        lhs = self.system.mul_levels(path.increments(s, u), path.increments(u, t))
        return max([0.0] + [float(np.abs(a - b).max()) for a, b in zip(lhs, path.increments(s, t))])

    def window_matrices(self, s: int, t: int) -> dict:
        """B_{s,t}: the ladder one-form of the window, by the level recursion."""
        return _ladder(
            self.source.base.system, {k: M[t] for k, M in self.level_matrices[1].items()},
            self.system.n, self.pair_value(s, t),
        )


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes; leading axes broadcast."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _ladder(system: HopfSystem, B: dict, hp: int, x: GradedTensor | None = None) -> dict:
    """Per-level, per-degree matrices ``{level: {degree: M}}`` of a ladder one-form.

    Level 1 is ``B``; level l pairs level l-1 with ``B`` through the
    two-factor split.  A window increment ``x`` adds the ``x_{l-1} (x) B``
    term of the window recursion.  Leading axes of the matrices in ``B``
    (one per grid time) carry through.
    """
    dbl = {k: _double_block_matrices(system, k) for k in range(2, system.n + 1)}
    levels = {1: B}
    for lvl in range(2, hp + 1):
        cur: dict = {}
        for k in range(1, system.n + 1):
            acc = None
            if x is not None and B.get(k) is not None:
                acc = _kron(x.levels[lvl - 1].reshape(-1, 1), B[k])
            for (j1, j2), M in dbl.get(k, {}).items():
                prev = levels[lvl - 1].get(j1)
                low = B.get(j2)
                if prev is None or low is None:
                    continue
                # kron(prev, low) expects the (j1, j2) split flattened
                # row-major, which is how the split matrices are built
                term = np.matmul(_kron(prev, low), M)
                acc = term if acc is None else acc + term
            if acc is not None:
                cur[k] = acc
        levels[lvl] = cur
    return levels


def _apply_ladder(levels: list, ladder: dict, s, c) -> list:
    """Add ``sum_k M_{l,k}(s) pi_k(c)`` into level l of the stacked ``levels`` for each ladder level l."""
    out = list(levels)
    for lvl, per_deg in ladder.items():
        for k, M in per_deg.items():
            out[lvl] = out[lvl] + np.matmul(M[s], c[k][..., None])[..., 0]
    return out


def _ladder_readout(system: HopfSystem, ladder: dict):
    """Level list of the ladder applied to the recentred direction, from zero."""

    def readout(s, c):
        shape = c[0].shape[:-1]
        return _apply_ladder([np.zeros(shape + (system.dim(k),)) for k in range(system.n + 1)], ladder, s, c)

    return readout


def enhance(d: DominatedPath, schedule: str = "ltr") -> GroupEnhancement:
    """Build the group-valued lift by sewing the level-stacked one-form."""
    base = d.base
    hp = base.system.n
    enh_system = tensor_system("nilpotent", d.dim, hp)
    level_matrices = _ladder(base.system, d.base_matrices(range(1, hp + 1)), hp)
    form = RecenteredForm(base, AlgebraTarget(enh_system), readout=_ladder_readout(enh_system, level_matrices))
    res = sew(form, base, d.omega, d.theta, schedule=schedule, check=False)
    return GroupEnhancement(d, SampledGroupPath(enh_system, base.times, res.prefixes), res, level_matrices)


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
    ladder = _ladder_readout(enhancement.system, enhancement.level_matrices)

    def readout(s, c):
        return outer.form.eval_rows(gamma_path, s, s, ladder(s, c))

    form = RecenteredForm(base, outer.form.target, readout=readout)
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
