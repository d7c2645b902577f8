"""Group-valued sampled paths, signatures, p-variation and controls.

A :class:`SampledGroupPath` is a strictly increasing time grid together with
one group element per grid point.  Signatures of piecewise-linear data are
built from segment exponentials via Chen products, so every constructed value
is grouplike and increments are multiplicative by construction.

The levels of the values are stacked once, as ``(N, dim_k)`` arrays, and
:meth:`SampledGroupPath.increments` is the one batched route to increments.
p-variation is computed exactly over the sample grid by dynamic programming,
one row per start index, grown on demand.  Its table of pairwise increment
norms is built once per path, a block of start rows at a time against the
later values held in column layout, and cached; it equals the norms of
:meth:`SampledGroupPath.increments` bit for bit.

A :class:`Control` answers row queries ``rows(i, j)`` over index arrays; every
certificate measures Holder quotients ``dev / w(s,t)^e`` with
:func:`holder_quotients` and picks its worst window with :func:`sup_quotient`.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import GradedTensor, HopfSystem, stack_levels, tensor_system


class SampledGroupPath:
    """Time grid plus grouplike values; increments g_s^{-1} g_t on demand.

    ``levels[k]`` stacks the degree-k blocks of the values as an ``(N, dim_k)``
    array, the one copy of the path; ``inverse_levels`` are those of the
    inverses, computed once when first needed.  ``values`` reads the rows as
    tensors, for per-row callers.
    """

    def __init__(self, system: HopfSystem, times, levels):
        self.system = system
        self.times = np.asarray(times, dtype=float)
        levels = [np.asarray(l, dtype=float) for l in levels]
        if len(levels) != system.n + 1:
            raise ValueError(f"expected {system.n + 1} levels, got {len(levels)}")
        N = self.times.shape[0] if self.times.ndim == 1 else -1
        if any(l.shape != (N, system.dim(k)) for k, l in enumerate(levels)):
            raise ValueError("times and values must align")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        self.levels = levels
        self._dist: np.ndarray | None = None
        self._pvar_rows = weakref.WeakValueDictionary()

    @cached_property
    def values(self) -> list:
        """The values one row at a time: tensors over read-only views of ``levels``."""
        out = []
        for i in range(len(self)):
            t = GradedTensor(self.system, [l[i] for l in self.levels])
            for l in t.levels:
                l.flags.writeable = False
            out.append(t)
        return out

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def d(self) -> int:
        return self.system.d

    @property
    def level(self) -> int:
        return self.system.n

    @cached_property
    def inverse_levels(self) -> list:
        return self.system.inverse_levels(self.levels)

    def increments(self, i, j) -> list:
        """Stacked levels of g_i^{-1} g_j; the index arrays ``i`` and ``j`` broadcast."""
        return self.system.mul_levels(
            [l[i] for l in self.inverse_levels], [l[j] for l in self.levels]
        )

    def increment(self, i: int, j: int) -> GradedTensor:
        if i == j:
            return self.system.unit()
        return GradedTensor(self.system, self.increments(i, j))

    def recenter(self, s: int, a: GradedTensor, v: GradedTensor) -> GradedTensor:
        """g_s^{-1} a (v - v_0 1): the direction v at a, seen from the base point g_s."""
        for x in (a, v):
            self.system.require_same(x.system)
        return GradedTensor(self.system, self.recenter_rows(s, a.levels, v.levels))

    def recenter_rows(self, s, a, v) -> list:
        """Stacked levels of g_s^{-1} a (v - v_0 1) for a grid index array ``s``
        and level lists ``a`` and ``v``, whose leading axes broadcast."""
        system = self.system
        w = system.mul_levels(a, [l - v[0] * u for l, u in zip(v, system.unit_levels())])
        return system.mul_levels([l[s] for l in self.inverse_levels], w)

    def dilate(self, c: float) -> "SampledGroupPath":
        return SampledGroupPath(self.system, self.times, [(c**k) * l for k, l in enumerate(self.levels)])

    def restrict(self, indices) -> "SampledGroupPath":
        idx = list(indices)
        return SampledGroupPath(self.system, self.times[idx], [l[idx] for l in self.levels])

    def subgrid_of(self, other: "SampledGroupPath", tol: float = 1e-12) -> bool:
        pos = np.searchsorted(other.times, self.times)
        pos = np.clip(pos, 0, len(other) - 1)
        ok = np.abs(other.times[pos] - self.times) <= tol
        return bool(np.all(ok))

    def pvar_rows(self, p: float) -> "_PVarRows":
        """The one p-variation DP row store of this path and p, kept beside the norm table
        while a control or a caller holds it; its (N, N) powers then go with it."""
        rows = self._pvar_rows.get(p)
        if rows is None:
            rows = self._pvar_rows[p] = _PVarRows(self.increment_norms, p)
        return rows

    def increment_norms(self) -> np.ndarray:
        """Homogeneous norms of all pairwise increments (i < j), cached.

        The start rows go in blocks [i0, i1).  Each block multiplies its
        g_i^{-1} into the values j >= i1, held in column layout, in one
        :meth:`HopfSystem.mul_columns` call, and writes the norms of that
        rectangle straight into the table; the pairs i0 <= i < j < i1 inside
        the blocks are gathered into one :meth:`increments` call at the end.
        Each pair is formed once and no pair j <= i is formed.  Every norm
        sums its coefficients in contiguous-row order (``coefficient_sums``),
        so the table has the bits of :meth:`increments` followed by
        ``homogeneous_norm``, pair by pair.
        """
        if self._dist is None:
            N = len(self)
            system = self.system
            dist = np.zeros((N, N))
            inverse, cols = self.inverse_levels, [np.ascontiguousarray(l.T) for l in self.levels]
            width = sum(l.shape[1] for l in self.levels)
            inner = [np.empty((2, 0), dtype=np.int64)]  # (i, j) rows of the in-block pairs
            i0 = 0
            while i0 < N - 1:
                i1 = min(N, i0 + _norm_block_height(N, width, N - 1 - i0))
                if i1 < N:
                    prod = system.mul_columns([l[i0:i1] for l in inverse], [c[:, i1:] for c in cols])
                    dist[i0:i1, i1:] = system.homogeneous_norm([np.swapaxes(c, -1, -2) for c in prod])
                inner.append(np.array(np.triu_indices(i1 - i0, 1)) + i0)
                i0 = i1
            i, j = np.concatenate(inner, axis=1)
            dist[i, j] = system.homogeneous_norm(self.increments(i, j))
            self._dist = dist
        return self._dist


NORM_BLOCK_SHARE = 8  # a block's product coefficients: at most an eighth of the N^2 table cells
NORM_BLOCK_FLOOR = 1 << 13  # or 8k (64 KB) on small tables, where per-block overhead outweighs memory


def _norm_block_height(N: int, width: int, rest: int) -> int:
    """Start rows per block of the norm table of N points, with ``width`` coefficients
    per value and ``rest`` later columns beyond the block's first row."""
    return max(1, max(N * N // NORM_BLOCK_SHARE, NORM_BLOCK_FLOOR) // (width * rest))


def grid_triples(N: int, max_triples: int | None = None):
    """Grid triples s < u < t in lexicographic order, lazily.

    With a cap, every stride-th triple, ``stride = C(N, 3) // max_triples + 1``:
    the triples of lexicographic rank 0, stride, 2 stride, ..., each unranked
    directly, so the work is O(max_triples log N) and memory O(1) whatever N is.
    """
    total = math.comb(N, 3)
    if max_triples is None or total <= max_triples:
        return itertools.combinations(range(N), 3)
    return (_unrank_triple(N, r) for r in range(0, total, total // max_triples + 1))


def _unrank_triple(N: int, r: int) -> tuple:
    """The triple of lexicographic rank r among the grid triples of range(N).

    The triples whose first index is at least s number C(N - s, 3); those with
    first index s and middle index at least u number C(N - u, 2).  Each index
    is the largest one whose predecessors' count does not exceed the rank.
    """
    later = math.comb(N, 3) - r  # triples of rank >= r
    s = _last_at_least(0, N - 3, lambda i: math.comb(N - i, 3) >= later)
    later -= math.comb(N - s - 1, 3)  # now counts the (u, t) pairs of rank >= r within s
    u = _last_at_least(s + 1, N - 2, lambda i: math.comb(N - i, 2) >= later)
    t = N - later + math.comb(N - u - 1, 2)
    return (s, u, t)


def _last_at_least(lo: int, hi: int, holds) -> int:
    """The largest i in [lo, hi] with ``holds(i)``, for a predicate true on a prefix starting at lo."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


CHEN_CHUNK = 4096  # triples per batched product in chen_residual


def chen_residual(path: SampledGroupPath, max_triples: int | None = None) -> float:
    """Largest coefficient residual of increment(s,u) increment(u,t) -
    increment(s,t) over grid triples s < u < t, CHEN_CHUNK triples at a time."""
    triples = grid_triples(len(path), max_triples)
    worst = 0.0
    while chunk := list(itertools.islice(triples, CHEN_CHUNK)):
        s, u, t = np.array(chunk, dtype=np.int64).T
        prod = path.system.mul_levels(path.increments(s, u), path.increments(u, t))
        for a, b in zip(prod, path.increments(s, t)):
            worst = max(worst, float(np.abs(a - b).max()))
    return worst


# -- signatures ---------------------------------------------------------------

def signature_of_segment(v, n: int) -> GradedTensor:
    """Step-n signature of a linear segment with increment vector v."""
    v = np.asarray(v, dtype=float).reshape(-1)
    system = tensor_system("nilpotent", v.shape[0], n)
    lift = system.zero()
    lift.levels[1][:] = v
    return system.exp(lift)


def signature_piecewise_linear(points, n: int, times=None) -> SampledGroupPath:
    """Running step-n signature of a piecewise-linear path, by Chen products.

    The segment exponentials are one stacked series, and their running
    products are formed a level at a time (:meth:`HopfSystem.running_products`).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 2:
        raise ValueError("need at least two sample points")
    d = pts.shape[1]
    system = tensor_system("nilpotent", d, n)
    if times is None:
        times = np.arange(pts.shape[0], dtype=float)
    steps = np.diff(pts, axis=0)
    lift = [np.zeros((steps.shape[0], system.dim(k))) for k in range(n + 1)]
    if n >= 1:
        lift[1] = steps
    return SampledGroupPath(system, times, system.running_products(system.exp_levels(lift)))


def path_from_increments(system: HopfSystem, times, step_values) -> SampledGroupPath:
    """Running products of per-interval group increments, starting at the unit."""
    return SampledGroupPath(system, times, system.running_products(stack_levels(system, step_values)))


# -- p-variation ---------------------------------------------------------------

class _PVarRows:
    """Exact p-variation DP over a grid, one row per start index, grown on demand.

    ``rows[i][m]`` is the largest sum of |increment|^p over partitions of the
    window [i, i + m].  ``norms()`` gives the (N, N) increment-norm table; it
    is read at the first query.  A query reads the cells (i, j), i <= j, of two
    index arrays that broadcast: each distinct start row grows once, up to the
    largest end asked of it, then its cells are gathered.
    """

    def __init__(self, norms, p: float):
        self.norms = norms
        self.p = p
        self.powers: np.ndarray | None = None
        self.rows: dict[int, np.ndarray] = {}

    def __call__(self, i, j) -> np.ndarray:
        if self.powers is None:  # only the cells i < j: the DP reads no others
            norms = self.norms()
            self.powers = np.zeros(norms.shape)
            for s in range(len(norms) - 1):
                self.powers[s, s + 1 :] = norms[s, s + 1 :] ** self.p
        i, j = np.broadcast_arrays(i, j)
        ends = np.full(len(self.powers), -1)
        np.maximum.at(ends, i.ravel(), j.ravel())  # the largest end asked of each start
        starts = np.flatnonzero(ends >= 0)
        grown = []
        for s, end in zip(starts.tolist(), ends[starts].tolist()):
            row = old = self.rows.get(s, np.zeros(1))
            if len(old) <= end - s:
                row = np.concatenate([old, np.empty(end - s + 1 - len(old))])
                for m in range(len(old), len(row)):
                    row[m] = (row[:m] + self.powers[s : s + m, s + m]).max()
                self.rows[s] = row
            grown.append(row)
        first = np.cumsum([0] + [len(row) for row in grown])[np.searchsorted(starts, i)]
        return np.concatenate(grown)[first + j - i]


def p_variation(path: SampledGroupPath, p: float, window=None) -> float:
    """Exact p-variation over sub-partitions of the grid window, by DP."""
    if p < 1:
        raise ValueError("p-variation needs p >= 1")
    i0, i1 = (0, len(path) - 1) if window is None else window
    if i0 >= i1:
        return 0.0
    return float(path.pvar_rows(p)(i0, i1)) ** (1.0 / p)


def vector_p_variation(xs: np.ndarray, p: float) -> float:
    """p-variation of a flat vector path under the ell-1 norm."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    N = xs.shape[0]
    dist = np.zeros((N, N))
    for i in range(N):
        dist[i, i + 1 :] = np.abs(xs[i + 1 :] - xs[i]).sum(axis=1)
    return float(_PVarRows(lambda: dist, p)(0, N - 1)) ** (1.0 / p)


@dataclass
class Control:
    """Superadditive two-parameter function on grid index pairs.

    ``fn(i, j)`` gives the values on the windows i < j of two index arrays; a
    sum of two controls keeps its operands in ``parts`` and adds their rows,
    left one first.
    """

    times: np.ndarray
    fn: object = None  # callable (index array i, index array j) -> values
    parts: tuple = ()

    def rows(self, i, j) -> np.ndarray:
        """w(i, j) over grid index arrays that broadcast, 0 where j <= i."""
        i, j = np.broadcast_arrays(np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64))
        if self.parts:
            return self.parts[0].rows(i, j) + self.parts[1].rows(i, j)
        out = np.zeros(i.shape)
        live = j > i
        if live.any():
            out[live] = self.fn(i[live], j[live])
        return out

    def __call__(self, i: int, j: int) -> float:
        """The one-window case of :meth:`rows`."""
        return float(self.rows(i, j))

    def __add__(self, other: "Control") -> "Control":
        return Control(self.times, parts=(self, other))

    def superadditivity_residual(self, samples: int = 200, seed: int = 0) -> float:
        """Most negative value of w(s,t) - w(s,u) - w(u,t) over sampled triples."""
        rng = np.random.default_rng(seed)
        N = len(self.times)
        if N < 3:  # no triples
            return 0.0
        drawn = [sorted(rng.choice(N, size=3, replace=False)) for _ in range(samples)]
        s, u, t = np.array(drawn, dtype=np.int64).reshape(-1, 3).T
        return min([0.0] + (self.rows(s, t) - self.rows(s, u) - self.rows(u, t)).tolist())


def holder_quotients(dev, w, e) -> np.ndarray:
    """Holder quotients ``dev / w**e`` where w > 0 and nan elsewhere; the arrays broadcast.

    Each power is a Python float power, taken in row-major order: ``np.power`` can
    round an ulp apart, and on overflow it gives inf or ``FloatingPointError``
    where Python raises ``OverflowError``.
    """
    dev, w, e = np.broadcast_arrays(dev, w, e)
    out = np.full(w.shape, np.nan)
    live = w > 0
    out[live] = [d / x**y for d, x, y in zip(dev[live].tolist(), w[live].tolist(), e[live].tolist())]
    return out


def sup_quotient(q) -> tuple:
    """``(value, index)`` of the first strict maximum of q above 0 in row-major order,
    where a loop keeping ``q > best`` from ``best = 0`` ends; nan never wins."""
    q = np.append(np.where(q > 0, q, 0.0), 0.0)  # flat, and never empty
    k = int(q.argmax())
    return (float(q[k]), k) if q[k] > 0 else (0.0, None)


def control_from_pvar(path: SampledGroupPath, p: float) -> Control:
    """w(s,t) = |g|_{p-var,[s,t]}^p; superadditive by construction.

    The control reads the path's one DP row store for p, so controls summed
    over one path and p compute each row once; certificates and the
    point-removal budget query the same windows repeatedly.  Building the
    control computes nothing.
    """
    return Control(path.times, path.pvar_rows(p))


def uniform_control(times) -> Control:
    times = np.asarray(times, dtype=float)
    return Control(times, lambda i, j: times[j] - times[i])
