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
from functools import cached_property

import numpy as np

from . import trees
from .algebra import ForestSystem, GradedTensor, HopfSystem, WordSystem, coefficient_sums, tensor_system
from .paths import CHEN_CHUNK, Control, SampledGroupPath, grid_triples, holder_quotients
from .paths import sup_quotient
from .shuffles import apply_inverse, ordered_shuffles


class CertificateError(ValueError):
    """A regularity certificate failed; carries the offending data."""

    def __init__(self, message: str, detail=None):
        super().__init__(message)
        self.detail = detail


# -- targets -------------------------------------------------------------------
# Rows stack values over leading axes: ``(..., dim)`` arrays, or level lists
# ``[(..., dim_k)]`` (or tensors) of an algebra.  ``value`` reads one row as a
# value; ``prefixes`` stacks the running products 1, b_0, b_0 b_1, ... of rows.


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

    def sigma_max_norms(self, rows) -> np.ndarray:
        """The sigma-max norm of each row, each summed over one contiguous row."""
        return np.abs(rows).sum(axis=-1)

    norm = sigma_max_norms  # one degree: the ell-1 norm

    def value(self, row):
        return row

    def take(self, rows, i):
        return rows[i]

    def prefixes(self, rows) -> np.ndarray:
        return np.cumsum(np.concatenate([self.unit()[None], rows]), axis=0)

    def is_member(self, x, tol=1e-9) -> bool:
        return np.all(np.isfinite(x))


class AlgebraTarget:
    """A truncated graded algebra; group elements have unit scalar part."""

    def __init__(self, system: HopfSystem):
        self.system = system
        self.kind = "algebra"

    def unit(self):
        return self.system.unit_levels()

    def mul(self, x, y):
        return self.system.mul_levels(getattr(x, "levels", x), getattr(y, "levels", y))

    def inverse(self, x):
        return self.system.inverse_levels(getattr(x, "levels", x))

    def sub(self, x, y):
        return [a - b for a, b in zip(getattr(x, "levels", x), getattr(y, "levels", y))]

    def norm(self, x):
        return self.system.norm(x)

    def sigma_max_norms(self, rows) -> np.ndarray:
        return self.system.sigma_max_norm(rows)

    def value(self, row) -> GradedTensor:
        return GradedTensor(self.system, row)

    def take(self, rows, i) -> list:
        return [l[i] for l in rows]

    def prefixes(self, rows) -> list:
        return self.system.running_products(rows)

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
    ``out_shape + (in_dim,) * l`` (derivative slots last, symmetric), and
    ``deriv_rows(l, X)`` those at the rows of ``X``, stacked.  ``deriv_fn``
    evaluates one point; ``rows_fn``, when set, evaluates many at once.
    One-form-valued functions use ``out_shape = (m, in_dim)`` with the
    direction slot second.
    """

    gamma: float
    in_dim: int
    out_shape: tuple
    deriv_fn: object
    lip_bound_fn: object = None
    rows_fn: object = None

    @property
    def top(self) -> int:
        return strict_floor(self.gamma)

    def deriv(self, l: int, x) -> np.ndarray:
        """The one-row case of :meth:`deriv_rows`."""
        return self.deriv_rows(l, np.asarray(x, dtype=float)[None])[0]

    def deriv_rows(self, l: int, X) -> np.ndarray:
        """The l-th derivatives at the rows of ``X``, shape ``(R,) + out_shape + (in_dim,) * l``.

        Without ``rows_fn``, ``deriv_fn`` is called once per row.
        """
        X = np.asarray(X, dtype=float)
        if self.rows_fn is not None:
            return self.rows_fn(l, X)
        want = tuple(self.out_shape) + (self.in_dim,) * l
        out = np.empty((X.shape[0],) + want)
        for i, x in enumerate(X):
            arr = np.asarray(self.deriv_fn(l, x), dtype=float)
            if arr.shape != want:
                raise ValueError(f"derivative {l} has shape {arr.shape}, want {want}")
            out[i] = arr
        return out

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

        def rows_fn(l, X):
            """Taylor sums ``sum_j (D^{l+j} p)(0) x^j / j!`` at every row x of X.

            Each contraction with x is one ``np.matmul`` over the rows, which
            rounds as ``np.tensordot`` of one row does.
            """
            R = X.shape[0]
            if l >= len(arrays):
                return np.zeros((R,) + tuple(out_shape) + (in_dim,) * l)
            slot = len(out_shape) + l  # the first slot past the kept ones
            col = X[:, :, None]
            out = np.zeros((R,) + arrays[l].shape)
            fact = 1.0
            for j in range(len(arrays) - l):
                term = arrays[l + j]
                for c in range(j):
                    lead = int(c > 0)  # the row axis, once the rows are in
                    moved = np.moveaxis(term, lead + slot, -1)
                    rest = moved.shape[lead:-1]
                    flat = moved.reshape(moved.shape[:lead] + (-1, in_dim))
                    term = np.matmul(flat, col).reshape((R,) + rest)
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

        def deriv_fn(l, x):
            return rows_fn(l, x[None])[0]

        return cls(gamma, in_dim, tuple(out_shape), deriv_fn, lip_bound_fn, rows_fn)


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
    """Empirical Holder quotient of the top derivative over sample pairs (ell-1 gaps below 1e-12 skipped)."""
    pts = [np.asarray(x, dtype=float) for x in samples]
    if len(pts) < 2:
        return 0.0
    X = np.array(pts)
    D = f.deriv_rows(f.top, X)
    i, j = np.triu_indices(len(X), 1)
    gaps = np.abs(X[i] - X[j]).sum(axis=-1)
    devs = np.abs(D[i] - D[j]).reshape(len(i), -1).max(axis=-1)
    return sup_quotient(holder_quotients(devs, np.where(gaps < 1e-12, 0.0, gaps), f.gamma - f.top))[0]


# -- the one-form interface ------------------------------------------------------


class TimeVaryingOneForm:
    """Per-grid-time linear maps (a, v) -> target, linear in v.

    A form implements :meth:`rows`; every other evaluation reads it.
    """

    def __init__(self, times, domain: HopfSystem, target):
        self.times = np.asarray(times, dtype=float)
        self.domain = domain
        self.target = target

    def rows(self, s, a, v):
        """beta_s(a, v) on stacked level lists ``a`` and ``v`` at grid indices ``s``.

        The leading axes of ``s``, ``a`` and ``v`` broadcast; the result is
        the target's rows over them.
        """
        raise NotImplementedError

    def eval(self, s: int, a: GradedTensor, v: GradedTensor):
        """The one-row case of :meth:`rows`, on tensors."""
        return self.target.value(self.rows(s, a.levels, v.levels))

    def eval_rows(self, path: SampledGroupPath, s, a, v):
        """beta_s(g_a, v): :meth:`rows` at the values of ``path`` at grid indices ``a``."""
        return self.rows(s, [l[a] for l in path.levels], v)

    def probe_matrix(self, path: SampledGroupPath, s, a, k: int) -> np.ndarray:
        """Matrices ``(..., dim, dim_k)`` of v_k -> beta_s(g_a, v_k) on the degree-k block (flat targets)."""
        rows = self.eval_rows(path, np.expand_dims(s, -1), np.expand_dims(a, -1), basis_rows(self.domain, k))
        return np.ascontiguousarray(np.swapaxes(rows, -1, -2))

    def linearity_residual(self, s: int, a: GradedTensor, v1, v2, c1=0.7, c2=-1.3) -> float:
        lhs = self.eval(s, a, c1 * v1 + c2 * v2)
        combo = self.target.sub(lhs, c1 * self.eval(s, a, v1))
        combo = self.target.sub(combo, c2 * self.eval(s, a, v2))
        return float(self.target.norm(combo))

    def cocycle_residual(self, s: int, a: GradedTensor, b: GradedTensor, c: GradedTensor) -> float:
        """|beta(a,b) beta(ab,c) - beta(a,bc)| at one time index."""
        dom = self.domain
        lhs = self.target.mul(self.eval(s, a, b), self.eval(s, dom.mul(a, b), c))
        rhs = self.eval(s, a, dom.mul(b, c))
        return float(self.target.norm(self.target.sub(lhs, rhs)))


def basis_rows(domain: HopfSystem, k: int) -> list:
    """Stacked levels of the degree-k basis vectors, one row each."""
    dim = domain.dim(k)
    return [np.eye(dim) if j == k else np.zeros((dim, domain.dim(j))) for j in range(domain.n + 1)]


def column_norms(M: np.ndarray) -> np.ndarray:
    """ell-1 norm of each column of the last two axes, each summed as ``FlatTarget.norm`` sums a vector."""
    return coefficient_sums(np.abs(np.swapaxes(M, -1, -2)))


# -- constant cocyclic forms -----------------------------------------------------


class ConstantForm(TimeVaryingOneForm):
    """Time-constant cocyclic form  beta(a, b) = alpha(a)^{-1} alpha(ab).

    ``alpha`` is a linear map from stacked domain levels to the target's rows
    (a flat target adds: ``alpha(ab) - b_0 alpha(a)``).
    """

    def __init__(self, times, domain: HopfSystem, target, alpha):
        super().__init__(times, domain, target)
        self.alpha = alpha

    def rows(self, s, a, v):
        av = self.alpha(self.domain.mul_levels(a, v))
        if isinstance(self.target, FlatTarget):
            return av - v[0][..., :1] * self.alpha(a)
        return self.target.mul(self.target.inverse(self.alpha(a)), av)


def constant_form_from_alpha(times, domain: HopfSystem, target, alpha, probes=None) -> ConstantForm:
    """The constant form of ``alpha``, whose image on group elements must lie
    in the target group (checked on the probe tensors)."""
    for g in probes or ():
        if not target.is_member(target.value(alpha(g.levels))):
            raise CertificateError("alpha image leaves the target group", detail=g)
    return ConstantForm(times, domain, target, alpha)


def identity_form(times, domain: HopfSystem) -> ConstantForm:
    """beta(a, b) = b: the form whose integral reproduces the path itself."""
    return constant_form_from_alpha(times, domain, AlgebraTarget(domain), list)


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
        padded = path.levels + [np.zeros((len(path), self.upper.dim(m + 1)))]
        self._inv_padded = self.upper.inverse_levels(padded)

    def rows(self, s, a, v):
        up, top = self.upper, self.upper.dim(self.m + 1)
        gi = [l[s] for l in self._inv_padded]

        def seen(x):  # 1_m(g_s^{-1} x), with x padded by a zero top level
            out = up.mul_levels(gi, [*x, np.zeros(x[0].shape[:-1] + (top,))])
            return out[:-1] + [np.zeros_like(out[-1])]

        return up.mul_levels(up.inverse_levels(seen(a)), seen(self.domain.mul_levels(a, v)))


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
        self._tuples = self._index_tuples()

    def _index_tuples(self):
        n, dn = self.lift_level, self.domain.n
        out = []
        for k in range(1, n + 1):
            for ls in itertools.product(range(n), repeat=k):
                if sum(ls) + k <= dn:
                    out.append((k, ls))
        return out

    def rows(self, s, a, v):
        """Each contraction with a derivative is one ``np.matmul`` over the rows,
        which rounds as ``np.tensordot`` of one row does."""
        d, m = self.domain.d, self.f.out_shape[0]
        lead = np.broadcast_shapes(a[1].shape[:-1], v[0].shape[:-1])
        R = math.prod(lead)
        X = np.broadcast_to(a[1], lead + (d,)).reshape(R, d)
        # derivative layout (R, m, direction, slots...) -> (R, m, slots..., direction)
        derivs = [
            np.moveaxis(self.f.deriv_rows(l, X), 2, -1).reshape(R, m, d ** (l + 1))
            for l in range(self.lift_level)
        ]
        v = [np.broadcast_to(l, lead + l.shape[-1:]).reshape(R, l.shape[-1]) for l in v]
        out = [v[0][:, :1] * u for u in self.target.system.unit_levels()]
        for k, ls in self._tuples:
            total = sum(ls) + k
            block = np.zeros((R, d**total))
            for perm in ordered_shuffles(tuple(l + 1 for l in ls)):
                block = block + apply_inverse(v[total], perm, d)
            # contract factor i (a V^{(l_i+1)} slot group) with (D^{l_i} p)(x)
            cur = block.reshape((R,) + tuple(d ** (l + 1) for l in ls))
            for i, l in enumerate(ls):
                moved = np.moveaxis(cur, 1 + i, 1)
                cur = np.matmul(derivs[l], moved.reshape(R, moved.shape[1], math.prod(moved.shape[2:])))
                cur = np.moveaxis(cur.reshape((R, m) + moved.shape[2:]), 1, 1 + i)
            out[k] = out[k] + cur.reshape(out[k].shape)
        return [l.reshape(lead + l.shape[-1:]) for l in out]


def polynomial_trace_increment(f: LipFunction, path: SampledGroupPath, s: int, t: int) -> np.ndarray:
    """Closed-form increment sum_l (D^l p)(x_s) applied to the signature blocks."""
    x = path.levels[1][s]
    inc = path.increment(s, t)
    m = f.out_shape[0]
    out = np.zeros(m)
    for l in range(min(path.level, f.top + 1)):
        A = np.moveaxis(f.deriv(l, x), 1, -1).reshape(m, -1)
        out = out + A @ inc.levels[l + 1]
    return out


# -- the recentered one-form ----------------------------------------------------------


class RecenteredForm(TimeVaryingOneForm):
    """``beta_s(a, v) = R_s(g_s^{-1} a (v - v_0))``: a per-time linear readout of the recentred direction.

    ``readout(s, c)`` takes grid indices ``s`` and the stacked recentred
    levels ``c``, whose leading axes broadcast with ``s``, and returns the
    rows: an array ``(..., dim)`` into R^dim, or, into an algebra target, the
    level list of R_s(c), to which the form adds ``v_0 1``.  Without a
    readout the form is the matrix form ``sum_k M_k(s) pi_k(c)`` of the
    stacked tables ``stacked = matrices``, ``{k: (N, dim, dim_k)}`` over the
    grid; a form that builds its tables on first use overrides ``stacked``.
    ``target`` is the flat dimension or a target.  ``summands``, when set,
    are forms whose sum is this one.
    """

    summands = None

    def __init__(self, path: SampledGroupPath, target, matrices=None, readout=None):
        super().__init__(path.times, path.system, FlatTarget(target) if isinstance(target, int) else target)
        self.base_path = path
        if matrices is not None:
            self.stacked = matrices
        if readout is not None:
            self.readout = readout

    def readout(self, s, c):
        return read_matrices(self.stacked, s, c, self.target.dim)

    def rows(self, s, a, v):
        """All rows recentred at once (two stacked ``mul_levels``), then read out at once."""
        rows = self.readout(s, self.base_path.recenter_rows(s, a, v))
        if isinstance(self.target, AlgebraTarget):
            # the readout's sums start from +0, so adding v_0 1 afterwards rounds as
            # adding the terms into v_0 1 does, for the v_0 >= 0 of steps and probes
            rows = [v[0][..., :1] * u + r for u, r in zip(self.target.unit(), rows)]
        return rows


def read_matrices(mats: dict, s, c, dim: int) -> np.ndarray:
    """``sum_k M_k[s] pi_k(c)`` row by row, accumulated in the order of ``mats``.

    ``mats[k]`` stacks per-time matrices ``(N, dim, dim_k)``.  Each degree is
    one ``np.matmul(M[s], c_k[..., None])[..., 0]``, which computes every row
    as ``M @ c_k`` does; ``c @ M.T`` and ``einsum`` round differently.
    """
    out = np.zeros(c[0].shape[:-1] + (dim,))
    for k, M in mats.items():
        out = out + np.matmul(M[s], c[k][..., None])[..., 0]
    return out


class FormSum(RecenteredForm):
    """Pointwise sum of recentred forms over one base path, with a common flat target."""

    def __init__(self, forms):
        first = forms[0]
        if not isinstance(first.target, FlatTarget) or any(
            not isinstance(f, RecenteredForm) or f.base_path is not first.base_path for f in forms
        ):
            raise ValueError("a form sum needs flat recentred forms over one base path")
        super().__init__(first.base_path, first.target)
        self.forms = list(forms)

    def readout(self, s, c):
        out = self.forms[0].readout(s, c)
        for f in self.forms[1:]:
            out = out + f.readout(s, c)
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


def _taylor_matrices(f: LipFunction, X: np.ndarray, hp: int) -> dict:
    """``{l + 1: (D^l f)(x)}`` for l < [p] at every row x of X, stacked
    ``(R, m, d^(l+1))``, direction slot moved last; one call per order."""
    R, m = X.shape[0], f.out_shape[0]
    return {
        l + 1: np.moveaxis(f.deriv_rows(l, X), 2, -1).reshape(R, m, -1)
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
        super().__init__(path, f.out_shape[0])
        self.f = f
        self.p = p
        self.hp = hp
        self.theta = (min(f.gamma, float(hp)) + 1.0) / p

    @cached_property
    def stacked(self) -> dict:
        return _taylor_matrices(self.f, self.base_path.levels[1], self.hp)


class BranchedRoughOneForm(RecenteredForm):
    """Forest-system analogue: corolla-coefficient readout with Taylor weights.

    ``beta_s(a, v) = sum_l (1/l!) (D^l f)(x_s) [corolla_{l}](g_s^{-1} a (v - v_0))``
    where corolla_l is the tree with l single-node branches on a new root.
    """

    def __init__(self, f: LipFunction, path: SampledGroupPath, p: float):
        hp = _rough_order(f, p)
        if not isinstance(path.system, ForestSystem):
            raise ValueError("this construction is for the forest system")
        super().__init__(path, f.out_shape[0])
        self.f = f
        self.p = p
        self.hp = hp
        self.theta = (min(f.gamma, float(hp)) + 1.0) / p

    @cached_property
    def stacked(self) -> dict:
        """The corolla matrices of every grid time, one derivative call per order."""
        sysm, m = self.domain, self.f.out_shape[0]
        X = self.base_path.levels[1]
        mats = {}
        for l in range(min(self.hp, self.f.top + 1)):
            D = self.f.deriv_rows(l, X) / math.factorial(l)  # (N, m, d, d^l)
            M = np.zeros((X.shape[0], m, sysm.dim(l + 1)))
            for leaves in itertools.product(range(1, sysm.d + 1), repeat=l):
                for i in range(1, sysm.d + 1):
                    corolla = trees.tree(i, tuple(trees.tree(j) for j in leaves))
                    pos = sysm.forest_position(l + 1, (corolla,))
                    M[:, :, pos] += D[(slice(None), slice(None), i - 1) + tuple(j - 1 for j in reversed(leaves))]
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
        super().__init__(path, f0.out_shape[0])
        self.fs = fs
        self.p = p
        self.hp = hp
        self.omega = omega
        self.theta = theta

    @cached_property
    def stacked(self) -> dict:
        """The Taylor matrices of each grid time's own function, stacked."""
        X = self.base_path.levels[1]
        mats = [_taylor_matrices(f, X[s : s + 1], self.hp) for s, f in enumerate(self.fs)]
        return {k: np.concatenate([m[k] for m in mats]) for k in mats[0]}

    def time_variation_report(self, bound: float | None = None):
        """Per-order Holder quotients of the stack along the path, one start row at a time."""
        X = self.base_path.levels[1]
        N = X.shape[0]
        own = [np.stack([f.deriv(l, x) for f, x in zip(self.fs, X)]) for l in range(self.hp)]
        rows = []
        worst = {}
        for l in range(self.hp):
            expo = self.theta - (l + 1) / self.p
            for s in range(N - 1):
                later = np.arange(s + 1, N)
                gap = own[l][s + 1 :] - self.fs[s].deriv_rows(l, X[s + 1 :])
                dev = np.abs(gap).reshape(len(later), -1).max(axis=1)
                w = self.omega.rows(s, later)
                q = holder_quotients(dev, w, expo)
                live = w > 0
                cells = zip(later[live].tolist(), dev[live].tolist(), w[live].tolist(), q[live].tolist())
                rows += [(s, t, l, d, x, y) for t, d, x, y in cells]
                top, k = sup_quotient(q)
                if top > worst.get(l, (0.0, None))[0]:
                    worst[l] = (top, (s, s + 1 + k, l))
                if bound is not None and (q > bound).any():
                    at = (s, s + 1 + int(np.argmax(q > bound)), l)
                    raise CertificateError("time-varying stack violates the compensated regularity bound", detail=at)
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
    only adds the early probe ``probe(s, g_t)``, read for all t > s at once.
    Holder quotients run over all grid pairs and degrees 1..n of the domain.
    """
    N = len(path)
    n = beta.domain.n
    times = np.arange(N)
    own = [beta.probe_matrix(path, times, times, k) for k in range(n + 1)]
    M = max(float(column_norms(P).max(initial=0.0)) for P in own)
    degrees = range(1, n + 1)
    q = pair_quotients(beta, path, omega, [theta - k / p for k in degrees], {k: own[k] for k in degrees})
    best = {k: sup_quotient(q[:, k - 1]) for k in degrees}
    quotients = {k: v for k, (v, _) in best.items()}
    top = max(quotients.values(), default=0.0)
    # a loop over pairs, then degrees, ends on the last degree to first reach the top quotient
    i, k = max([(i, k) for k, (v, i) in best.items() if i is not None and v == top], default=(None, None))
    s, t = np.triu_indices(N, 1)
    worst_pair = None if i is None else (int(s[i]), int(t[i]), k)
    return SlowVaryingReport(M, theta, p, quotients, M + top, worst_pair)


def pair_quotients(form, path, omega, expos, own, trace=None) -> np.ndarray:
    """Holder quotients over the grid pairs s < t in row-major order, one start row at a time.

    With a ``trace`` h, column 0 takes the remainder ``|h_t - h_s - beta_s(g_s, g_{s,t})|``;
    the next take, for each degree k of ``own`` (the probes P_t of every grid time), the
    gap ``|P_t - probe(s, g_t)|``.  Column c is read at ``expos[c]``; nan where w(s,t) <= 0.
    The slowly-varying certificate reads the gaps, ``DominatedPath.remainder_quotient``
    the remainder.
    """
    times = np.arange(len(path))
    blocks = []
    for s in times[:-1].tolist():
        later = times[s + 1 :]
        devs = []
        if trace is not None:
            ones = form.eval_rows(path, s, s, path.increments(s, later))
            devs.append(np.abs((trace[later] - trace[s]) - ones).sum(axis=-1))
        devs += [column_norms(P[later] - form.probe_matrix(path, s, later, k)).max(axis=-1) for k, P in own.items()]
        blocks.append(holder_quotients(np.array(devs).T, omega.rows(s, later)[:, None], expos))
    return np.concatenate(blocks) if blocks else np.zeros((0, len(expos)))


@dataclass
class IntegrableReport:
    """Measured constants of the integrable condition on grid triples."""

    M: float
    ratio: float
    theta: float
    worst_triple: tuple | None
    ok: bool


def integrable_condition_check(
    beta: TimeVaryingOneForm,
    path: SampledGroupPath,
    omega: Control,
    theta: float,
    max_triples: int = 4096,
) -> IntegrableReport:
    """Evaluate the one-step bound and the compensated-regularity bound.

    The first bound is the sup over pairs of the one-step values, read one
    start index at a time; the second is the sup over triples s < u < t of
    ``max_sigma |(beta_u - beta_s)(g_u, g_{u,t})| / w(s,t)^theta``, read
    ``CHEN_CHUNK`` triples at a time.
    """
    N = len(path)
    tgt = beta.target
    M = 0.0
    for s in range(N - 1):
        later = np.arange(s + 1, N)
        one_steps = beta.eval_rows(path, s, s, path.increments(s, later))
        M = max(M, float(tgt.sigma_max_norms(one_steps).max()))
    ratio, worst = 0.0, None
    triples = grid_triples(N, max_triples)
    while chunk := list(itertools.islice(triples, CHEN_CHUNK)):
        first, mid, last = np.array(chunk, dtype=np.int64).T
        inc = path.increments(mid, last)
        late = beta.eval_rows(path, mid, mid, inc)
        early = beta.eval_rows(path, first, mid, inc)
        devs = tgt.sigma_max_norms(tgt.sub(late, early))
        w = omega.rows(first, last)
        q, k = sup_quotient(holder_quotients(devs, w, theta))
        if q > ratio:
            ratio, worst = q, chunk[k]
        # a deviation on a window of zero control is unbounded; the last one is reported
        zero = np.flatnonzero((w <= 0) & (devs > 1e-13))
        if zero.size:
            ratio, worst = np.inf, chunk[zero[-1]]
    ok = theta > 1.0 and np.isfinite(ratio) and np.isfinite(M)
    return IntegrableReport(M, ratio, theta, worst, ok)
