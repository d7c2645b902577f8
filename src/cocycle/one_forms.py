"""Time-varying cocyclic one-forms, Lipschitz data, and their certificates.

A cocyclic one-form assigns to each time-grid index ``s`` a map
``(a, v) -> value`` that is linear in the direction ``v`` and satisfies the
cocycle law ``beta(a, b) beta(ab, c) = beta(a, bc)`` on group elements.
Targets are either flat vector spaces (an abelian group under addition) or a
truncated graded algebra (values with unit scalar part).

Certificates quantify how slowly a form varies along a base path: a uniform
operator bound plus per-degree Holder quotients against a control, and the
weaker integrable condition evaluated on grid triples.  Operator norms are
exact maximisations over the coefficient basis (the domain carries the ell-1
norm, so the dual norm is a maximum over basis images).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import trees
from .algebra import ForestSystem, GradedTensor, HopfSystem, WordSystem, tensor_system
from .paths import Control, SampledGroupPath, grid_triples
from .shuffles import apply_inverse, ordered_shuffles


class CertificateError(ValueError):
    """A regularity certificate failed; carries the offending data."""

    def __init__(self, message: str, detail=None):
        super().__init__(message)
        self.detail = detail


# -- targets -------------------------------------------------------------------


class FlatTarget:
    """R^m as an abelian group under addition."""

    def __init__(self, dim: int):
        self.dim = dim
        self.kind = "flat"

    def unit(self):
        return np.zeros(self.dim)

    def mul(self, x, y):
        return x + y

    def inverse(self, x):
        return -x

    def sub(self, x, y):
        return x - y

    def norm(self, x) -> float:
        return float(np.abs(x).sum())

    def sigma_max_norm(self, x) -> float:
        return float(np.abs(x).sum())

    def is_member(self, x, tol=1e-9) -> bool:
        return np.all(np.isfinite(x))


class AlgebraTarget:
    """A truncated graded algebra; group elements have unit scalar part."""

    def __init__(self, system: HopfSystem):
        self.system = system
        self.kind = "algebra"

    def unit(self):
        return self.system.unit()

    def mul(self, x, y):
        return self.system.mul(x, y)

    def inverse(self, x):
        return self.system.inverse(x)

    def sub(self, x, y):
        return x - y

    def norm(self, x) -> float:
        return x.norm()

    def sigma_max_norm(self, x) -> float:
        return self.system.sigma_max_norm(x)

    def is_member(self, x, tol=1e-9) -> bool:
        return abs(x.scalar() - 1.0) <= tol


# -- Lipschitz data --------------------------------------------------------------


def strict_floor(gamma: float) -> int:
    """Largest integer strictly below gamma (the Lipschitz ladder index)."""
    f = int(math.floor(gamma))
    return f - 1 if f == gamma else f


@dataclass
class LipFunction:
    """A gamma-Lipschitz function given by its derivative stack.

    ``deriv(l, x)`` returns the l-th derivative at x with shape
    ``out_shape + (in_dim,) * l`` (derivative slots last, symmetric).
    One-form-valued functions use ``out_shape = (m, in_dim)`` with the
    direction slot second.
    """

    gamma: float
    in_dim: int
    out_shape: tuple
    deriv_fn: object
    lip_bound_fn: object = None

    @property
    def top(self) -> int:
        return strict_floor(self.gamma)

    def deriv(self, l: int, x) -> np.ndarray:
        arr = np.asarray(self.deriv_fn(l, np.asarray(x, dtype=float)), dtype=float)
        want = tuple(self.out_shape) + (self.in_dim,) * l
        if arr.shape != want:
            raise ValueError(f"derivative {l} has shape {arr.shape}, want {want}")
        return arr

    def lip_bound(self, R: float) -> float:
        if self.lip_bound_fn is None:
            raise ValueError("no Lipschitz bound callback supplied")
        return float(self.lip_bound_fn(R))

    @classmethod
    def from_polynomial(cls, arrays, gamma: float | None = None, in_dim: int | None = None) -> "LipFunction":
        """Polynomial from its derivative arrays at 0 (symmetry validated)."""
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        out_shape = arrays[0].shape
        if in_dim is None:
            if len(arrays) > 1:
                in_dim = arrays[1].shape[-1]
            elif len(out_shape) == 2:
                in_dim = out_shape[1]  # one-form-valued: direction slot
            else:
                in_dim = 1
        for l, arr in enumerate(arrays):
            if arr.shape != tuple(out_shape) + (in_dim,) * l:
                raise ValueError(f"array {l} has inconsistent shape {arr.shape}")
            _check_symmetric(arr, l)
        degree = len(arrays) - 1
        if gamma is None:
            gamma = float(degree + 1)

        def deriv_fn(l, x):
            if l >= len(arrays):
                return np.zeros(tuple(out_shape) + (in_dim,) * l)
            out = np.zeros_like(arrays[l])
            fact = 1.0
            for j in range(len(arrays) - l):
                term = arrays[l + j]
                for _ in range(j):
                    term = np.tensordot(term, x, axes=([len(out_shape) + l], [0]))
                out = out + term / fact
                fact *= j + 1
            return out

        def lip_bound_fn(R):
            total = 0.0
            for l, arr in enumerate(arrays):
                total = max(total, sum(
                    float(np.abs(arrays[l + j]).max()) * R**j / math.factorial(j)
                    for j in range(len(arrays) - l)
                ))
            return max(total, 1e-300)

        return cls(gamma, in_dim, tuple(out_shape), deriv_fn, lip_bound_fn)


def _check_symmetric(arr: np.ndarray, l: int, tol: float = 1e-10):
    if l < 2:
        return
    lead = arr.ndim - l
    base = list(range(arr.ndim))
    for i in range(l - 1):
        axes = list(base)
        axes[lead + i], axes[lead + i + 1] = axes[lead + i + 1], axes[lead + i]
        if np.abs(arr - arr.transpose(axes)).max() > tol:
            raise ValueError(f"derivative array of order {l} is not symmetric")


def holder_remainder_residual(f: LipFunction, samples, R: float | None = None) -> float:
    """Empirical Holder quotient of the top derivative over sample pairs."""
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


# -- the one-form interface ------------------------------------------------------


class TimeVaryingOneForm:
    """Per-grid-time linear maps (a, v) -> target, linear in v."""

    def __init__(self, times, domain: HopfSystem, target):
        self.times = np.asarray(times, dtype=float)
        self.domain = domain
        self.target = target

    def eval(self, s: int, a: GradedTensor, v: GradedTensor):
        raise NotImplementedError

    def eval_pair(self, path: SampledGroupPath, j: int, k: int):
        """beta_{t_j}(g_{t_j}, g_{t_j, t_k})."""
        return self.eval(j, path.values[j], path.increment(j, k))

    def probe_matrix(self, s: int, a: GradedTensor, k: int) -> np.ndarray:
        """Matrix of v_k -> beta_s(a, v_k) on the degree-k block (flat targets)."""
        dim = self.domain.dim(k)
        cols = []
        for pos in range(dim):
            e = self.domain.zero()
            e.levels[k][pos] = 1.0
            cols.append(self.eval(s, a, e))
        return np.stack(cols, axis=-1).reshape(-1, dim)

    def base_matrix(self, path: SampledGroupPath, s: int, k: int) -> np.ndarray:
        return self.probe_matrix(s, path.values[s], k)

    def linearity_residual(self, s: int, a: GradedTensor, v1, v2, c1=0.7, c2=-1.3) -> float:
        lhs = self.eval(s, a, c1 * v1 + c2 * v2)
        combo = self.target.sub(lhs, _scale(self.eval(s, a, v1), c1))
        combo = self.target.sub(combo, _scale(self.eval(s, a, v2), c2))
        return self.target.norm(combo)

    def cocycle_residual(self, s: int, a: GradedTensor, b: GradedTensor, c: GradedTensor) -> float:
        """|beta(a,b) beta(ab,c) - beta(a,bc)| at one time index."""
        dom = self.domain
        lhs = self.target.mul(self.eval(s, a, b), self.eval(s, dom.mul(a, b), c))
        rhs = self.eval(s, a, dom.mul(b, c))
        return self.target.norm(self.target.sub(lhs, rhs))


def column_norms(M: np.ndarray) -> np.ndarray:
    """ell-1 norm of each column, each summed as ``FlatTarget.norm`` sums a vector."""
    return np.abs(np.ascontiguousarray(M.T)).sum(axis=1)


def _scale(x, c):
    if isinstance(x, GradedTensor):
        return c * x
    return c * np.asarray(x)


class CallableForm(TimeVaryingOneForm):
    """One-form from a closure ``fn(s, a, v)``; optional exposed summands."""

    def __init__(self, times, domain, target, fn, summands=None, base_path=None):
        super().__init__(times, domain, target)
        self._fn = fn
        self.summands = summands
        self.base_path = base_path

    def eval(self, s, a, v):
        return self._fn(s, a, v)


class FormSum(TimeVaryingOneForm):
    """Pointwise sum of forms with a common flat target."""

    def __init__(self, forms):
        first = forms[0]
        super().__init__(first.times, first.domain, first.target)
        self.forms = list(forms)

    def eval(self, s, a, v):
        out = self.forms[0].eval(s, a, v)
        for f in self.forms[1:]:
            out = self.target.mul(out, f.eval(s, a, v))
        return out


# -- constant cocyclic forms -----------------------------------------------------


def constant_form_from_alpha(times, domain: HopfSystem, target, alpha, probes=None):
    """Time-constant cocyclic form  beta(a, b) = alpha(a)^{-1} alpha(ab).

    ``alpha`` is a linear map from the domain algebra into the target; its
    image on group elements must lie in the target group (checked on the
    probe points).
    """
    if probes:
        for g in probes:
            if not target.is_member(alpha(g)):
                raise CertificateError("alpha image leaves the target group", detail=g)

    if isinstance(target, FlatTarget):

        def fn(s, a, v):
            av = domain.mul(a, v)
            return np.asarray(alpha(av)) - v.scalar() * np.asarray(alpha(a))

    else:

        def fn(s, a, v):
            return target.mul(target.inverse(alpha(a)), alpha(domain.mul(a, v)))

    return CallableForm(times, domain, target, fn)


def identity_form(times, domain: HopfSystem):
    """beta(a, b) = b: the form whose integral reproduces the path itself."""
    return constant_form_from_alpha(times, domain, AlgebraTarget(domain), lambda g: g)


class LevelRaisingForm(TimeVaryingOneForm):
    """The one-level extension form of a group path.

    ``beta_s(a, b) = (1_m(g_s^{-1} a))^{-1} 1_m(g_s^{-1} (ab))`` with the
    inner product of a and b truncated at level m and everything else in the
    level-(m+1) algebra.
    """

    def __init__(self, path: SampledGroupPath):
        m = path.level
        self.m = m
        self.upper = tensor_system(path.system.kind, path.d, m + 1)
        super().__init__(path.times, path.system, AlgebraTarget(self.upper))
        self.base_path = path
        self._inv_padded = [
            self.upper.inverse(path.system.embed(v, m + 1)) for v in path.values
        ]

    def eval(self, s, a, v):
        dom, up, m = self.domain, self.upper, self.m
        gi = self._inv_padded[s]
        av = dom.mul(a, v)
        c1 = up.project(up.mul(gi, dom.embed(a, m + 1)), m)
        c2 = up.project(up.mul(gi, dom.embed(av, m + 1)), m)
        return up.mul(up.inverse(c1), c2)


# -- the polynomial cocyclic lift --------------------------------------------------


class PolynomialCocyclicForm(TimeVaryingOneForm):
    """Grouplike-target lift of a polynomial one-form.

    The value at ``(a, v)`` sums, over target degrees k and derivative orders
    ``(l_1..l_k)``, the ordered-shuffle image of the degree ``sum l_i + k``
    block of ``v`` contracted with the derivative tensors evaluated at
    ``pi_1(a)``.  On a domain at level ``n^2`` this is exactly cocyclic; on
    the level-n truncation it is approximately so, with the same sewn limit.
    """

    def __init__(self, times, f: LipFunction, lift_level: int, domain: HopfSystem):
        if len(f.out_shape) != 2:
            raise ValueError("polynomial lift needs a one-form-valued function")
        if not isinstance(domain, WordSystem):
            raise ValueError("polynomial lift is defined over the word system")
        if f.in_dim != domain.d:
            raise ValueError("dimension mismatch between one-form and domain")
        m = f.out_shape[0]
        target = AlgebraTarget(tensor_system("nilpotent", m, lift_level))
        super().__init__(times, domain, target)
        self.f = f
        self.lift_level = lift_level
        self._deriv_cache: dict = {}
        self._tuples = self._index_tuples()

    def _index_tuples(self):
        n, dn = self.lift_level, self.domain.n
        out = []
        for k in range(1, n + 1):
            for ls in itertools.product(range(n), repeat=k):
                if sum(ls) + k <= dn:
                    out.append((k, ls))
        return out

    def _deriv_at(self, x: np.ndarray):
        key = x.tobytes()
        hit = self._deriv_cache.get(key)
        if hit is None:
            hit = [self.f.deriv(l, x) for l in range(self.lift_level)]
            if len(self._deriv_cache) > 64:
                self._deriv_cache.clear()
            self._deriv_cache[key] = hit
        return hit

    def eval(self, s, a, v):
        d = self.domain.d
        m = self.f.out_shape[0]
        derivs = self._deriv_at(np.asarray(a.levels[1]))
        out = v.scalar() * self.target.unit()
        for k, ls in self._tuples:
            total = sum(ls) + k
            block = np.zeros(d**total)
            for perm in ordered_shuffles(tuple(l + 1 for l in ls)):
                block = block + apply_inverse(v.levels[total], perm, d)
            # contract factor i (a V^{(l_i+1)} slot group) with (D^{l_i} p)(x)
            cur = block.reshape(tuple(d ** (l + 1) for l in ls))
            for i, l in enumerate(ls):
                # derivative layout (m, direction, slots...) -> direction last
                A = np.moveaxis(derivs[l], 1, -1).reshape(m, d ** (l + 1))
                cur = np.tensordot(A, cur, axes=([1], [i]))
                cur = np.moveaxis(cur, 0, i)
            out.levels[k][:] += cur.reshape(-1)
        return out


def polynomial_trace_increment(f: LipFunction, path: SampledGroupPath, s: int, t: int) -> np.ndarray:
    """Closed-form increment sum_l (D^l p)(x_s) applied to the signature blocks."""
    x = path.level_one(s)
    inc = path.increment(s, t)
    m = f.out_shape[0]
    out = np.zeros(m)
    for l in range(min(path.level, f.top + 1)):
        A = np.moveaxis(f.deriv(l, x), 1, -1).reshape(m, -1)
        out = out + A @ inc.levels[l + 1]
    return out


# -- the recentered one-form ----------------------------------------------------------


class RecenteredForm(TimeVaryingOneForm):
    """``beta_s(a, v) = sum_k M_k(s) pi_k(g_s^{-1} a (v - v_0))`` into R^dim.

    ``matrices(s)`` returns the per-time maps ``{k: M_k(s)}``, each of shape
    ``(dim, dim_k)``; they are built once per grid index and kept.
    """

    def __init__(self, path: SampledGroupPath, dim: int, matrices):
        super().__init__(path.times, path.system, FlatTarget(dim))
        self.base_path = path
        self._build = matrices
        self._matrices: dict = {}

    def matrices(self, s: int) -> dict:
        hit = self._matrices.get(s)
        if hit is None:
            hit = self._matrices[s] = self._build(s)
        return hit

    def eval(self, s, a, v):
        c = self.base_path.recenter(s, a, v)
        return apply_matrices(self.matrices(s), c, self.target.dim)


def apply_matrices(mats: dict, c: GradedTensor, dim: int) -> np.ndarray:
    """sum_k M_k pi_k(c), accumulated in the order of ``mats``."""
    out = np.zeros(dim)
    for k, M in mats.items():
        out = out + M @ c.levels[k]
    return out


# -- rough-integration one-forms ---------------------------------------------------


def _rough_order(f: LipFunction, p: float) -> int:
    """[p], after the checks every rough-integration form shares."""
    if len(f.out_shape) != 2:
        raise ValueError("rough integration needs a one-form-valued function")
    if f.gamma <= p - 1.0:
        raise CertificateError(
            f"gamma = {f.gamma} must exceed p - 1 = {p - 1}", detail=(f.gamma, p)
        )
    return int(math.floor(p))


def _taylor_matrices(f: LipFunction, x: np.ndarray, hp: int) -> dict:
    """``{l + 1: (D^l f)(x)}`` for l < [p], direction slot moved last."""
    m = f.out_shape[0]
    return {
        l + 1: np.moveaxis(f.deriv(l, x), 1, -1).reshape(m, -1)
        for l in range(min(hp, f.top + 1))
    }


class RoughOneForm(RecenteredForm):
    """One-form of a Lip(gamma) one-form against a word-system path.

    ``beta_s(a, v) = sum_{l < [p]} (D^l f)(x_s) pi_{l+1}(g_s^{-1} a (v - v_0))``
    with x the degree-one trace of the base path.  Requires gamma > p - 1;
    only derivatives below [p] enter the Taylor recentering, so the usable
    Holder scale (and the slowly-varying exponent) caps gamma at [p].
    """

    def __init__(self, f: LipFunction, path: SampledGroupPath, p: float):
        hp = _rough_order(f, p)
        if not isinstance(path.system, WordSystem):
            raise ValueError("this construction is for the word system")
        if path.level < hp:
            raise ValueError("base path level below [p]")
        super().__init__(
            path, f.out_shape[0], lambda s: _taylor_matrices(f, path.level_one(s), hp)
        )
        self.f = f
        self.p = p
        self.hp = hp
        self.theta = (min(f.gamma, float(hp)) + 1.0) / p


class BranchedRoughOneForm(RecenteredForm):
    """Forest-system analogue: corolla-coefficient readout with Taylor weights.

    ``beta_s(a, v) = sum_l (1/l!) (D^l f)(x_s) [corolla_{l}](g_s^{-1} a (v - v_0))``
    where corolla_l is the tree with l single-node branches on a new root.
    """

    def __init__(self, f: LipFunction, path: SampledGroupPath, p: float):
        hp = _rough_order(f, p)
        if not isinstance(path.system, ForestSystem):
            raise ValueError("this construction is for the forest system")
        super().__init__(path, f.out_shape[0], self._corolla_matrices)
        self.f = f
        self.p = p
        self.hp = hp
        self.theta = (min(f.gamma, float(hp)) + 1.0) / p

    def _corolla_matrices(self, s: int) -> dict:
        sysm, m = self.domain, self.f.out_shape[0]
        x = self.base_path.level_one(s)
        mats = {}
        for l in range(min(self.hp, self.f.top + 1)):
            D = self.f.deriv(l, x) / math.factorial(l)  # (m, d, d^l)
            M = np.zeros((m, sysm.dim(l + 1)))
            for leaves in itertools.product(range(1, sysm.d + 1), repeat=l):
                for i in range(1, sysm.d + 1):
                    corolla = trees.tree(i, tuple(trees.tree(j) for j in leaves))
                    pos = sysm.forest_position(l + 1, (corolla,))
                    M[:, pos] += D[(slice(None), i - 1) + tuple(j - 1 for j in reversed(leaves))]
            mats[l + 1] = M
        return mats


class TimeVaryingRoughOneForm(RecenteredForm):
    """Rough-integration form with a per-grid-time Lipschitz function.

    The compensated regularity of the stack is measured on the grid:
    quotients ``|((D^l F_t) - (D^l F_s))(x_t)| / w(s,t)^{theta - (l+1)/p}``.
    """

    def __init__(self, fs, path: SampledGroupPath, p: float, omega: Control, theta: float):
        fs = list(fs)
        f0 = fs[0]
        if any(f.gamma != f0.gamma or f.out_shape != f0.out_shape for f in fs):
            raise ValueError("all grid functions must share shape and gamma")
        if len(fs) != len(path):
            raise ValueError("need one function per grid point")
        hp = _rough_order(f0, p)
        super().__init__(
            path, f0.out_shape[0], lambda s: _taylor_matrices(fs[s], path.level_one(s), hp)
        )
        self.fs = fs
        self.p = p
        self.hp = hp
        self.omega = omega
        self.theta = theta

    def time_variation_report(self, bound: float | None = None):
        """Per-order Holder quotients of the stack along the path."""
        xs = [self.base_path.level_one(t) for t in range(len(self.base_path))]
        own = [[f.deriv(l, x) for l in range(self.hp)] for f, x in zip(self.fs, xs)]
        rows = []
        worst = {}
        for l in range(self.hp):
            expo = self.theta - (l + 1) / self.p
            for s in range(len(xs) - 1):
                for t in range(s + 1, len(xs)):
                    dev = float(np.abs(own[t][l] - self.fs[s].deriv(l, xs[t])).max())
                    w = self.omega(s, t)
                    if w <= 0:
                        continue
                    q = dev / w**expo
                    rows.append((s, t, l, dev, w, q))
                    if q > worst.get(l, (0.0, None))[0]:
                        worst[l] = (q, (s, t, l))
                    if bound is not None and q > bound:
                        raise CertificateError(
                            "time-varying stack violates the compensated regularity bound",
                            detail=(s, t, l),
                        )
        return {"rows": rows, "worst": worst}


def mixed_one_form(alpha_fn, h_values, path: SampledGroupPath, p: float, omega: Control, theta: float):
    """Time variation through a second path: F_s = alpha(. , h_s)."""
    fs = [alpha_fn(h) for h in h_values]
    return TimeVaryingRoughOneForm(fs, path, p, omega, theta)


# -- certificates ------------------------------------------------------------------


@dataclass
class SlowVaryingReport:
    """Uniform bound, per-degree Holder quotients and the combined norm."""

    M: float
    theta: float
    p: float
    quotients: dict
    beta_norm: float
    worst_pair: tuple | None = None

    @property
    def bounded(self) -> bool:
        return np.isfinite(self.beta_norm)


def slowly_varying_certificate(
    beta: TimeVaryingOneForm,
    path: SampledGroupPath,
    omega: Control,
    theta: float,
    p: float,
) -> SlowVaryingReport:
    """Measure the slowly-varying norm of a flat-target form along a path.

    Operator norms are exact maxima over the coefficient basis: each time's
    own matrices ``P_t = probe(t, g_t)`` are probed once, and a pair (s, t)
    only adds the early probe ``probe(s, g_t)``.  Holder quotients run over
    all grid pairs and degrees 1..n of the domain.
    """
    N = len(path)
    n = beta.domain.n
    own = [[beta.probe_matrix(t, path.values[t], k) for k in range(n + 1)] for t in range(N)]
    M = 0.0
    for mats in own:
        for P in mats:
            M = max(M, float(column_norms(P).max()))
    quotients = {k: 0.0 for k in range(1, n + 1)}
    worst_pair = None
    for s in range(N - 1):
        for t in range(s + 1, N):
            w = omega(s, t)
            if w <= 0:
                continue
            for k in range(1, n + 1):
                early = beta.probe_matrix(s, path.values[t], k)
                dev = float(column_norms(own[t][k] - early).max())
                q = dev / w ** (theta - k / p)
                if q > quotients[k]:
                    quotients[k] = q
                    if q >= max(quotients.values()):
                        worst_pair = (s, t, k)
    beta_norm = M + (max(quotients.values()) if quotients else 0.0)
    return SlowVaryingReport(M, theta, p, quotients, beta_norm, worst_pair)


@dataclass
class IntegrableReport:
    """Measured constants of the integrable condition on grid triples."""

    M: float
    ratio: float
    theta: float
    worst_triple: tuple | None
    ok: bool
    frozen: bool = False


def integrable_condition_check(
    beta: TimeVaryingOneForm,
    path: SampledGroupPath,
    omega: Control,
    theta: float,
    max_triples: int = 4096,
) -> IntegrableReport:
    """Evaluate the one-step bound and the compensated-regularity bound.

    The first bound is the sup over pairs of the one-step values; the second
    is the sup over triples s < u < t of
    ``max_sigma |(beta_u - beta_s)(g_u, g_{u,t})| / w(s,t)^theta``.
    """
    N = len(path)
    tgt = beta.target
    M = 0.0
    for s in range(N - 1):
        for t in range(s + 1, N):
            M = max(M, tgt.sigma_max_norm(beta.eval_pair(path, s, t)))
    ratio, worst = 0.0, None
    frozen = True
    for s, u, t in grid_triples(N, max_triples):
        inc = path.increment(u, t)
        if frozen and any(np.abs(l).max() > 1e-14 for l in inc.levels[1:]):
            frozen = False
        late = beta.eval(u, path.values[u], inc)
        early = beta.eval(s, path.values[u], inc)
        dev = tgt.sigma_max_norm(tgt.sub(late, early))
        w = omega(s, t)
        if w <= 0:
            if dev > 1e-13:
                ratio = np.inf
                worst = (s, u, t)
            continue
        q = dev / w**theta
        if q > ratio:
            ratio, worst = q, (s, u, t)
    ok = theta > 1.0 and np.isfinite(ratio) and np.isfinite(M)
    return IntegrableReport(M, ratio, theta, worst, ok, frozen)
