"""Group-valued sampled paths, signatures, p-variation and controls.

A :class:`SampledGroupPath` is a strictly increasing time grid together with
one group element per grid point.  Signatures of piecewise-linear data are
built from segment exponentials via Chen products, so every constructed value
is grouplike and increments are multiplicative by construction.

p-variation is computed exactly over the sample grid by dynamic programming
(quadratic in the number of points; pairwise increment norms are cached).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import GradedTensor, HopfSystem, WordSystem, tensor_system


class SampledGroupPath:
    """Time grid plus grouplike values; increments g_s^{-1} g_t on demand."""

    def __init__(self, system: HopfSystem, times, values, validate: bool = False):
        self.system = system
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or len(values) != self.times.shape[0]:
            raise ValueError("times and values must align")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        self.values = list(values)
        self._inverses: list[GradedTensor | None] = [None] * len(values)
        self._dist: np.ndarray | None = None
        if validate:
            for v in self.values:
                if not system.grouplike_check(v, 1e-9):
                    raise ValueError("path value fails the grouplike relations")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def d(self) -> int:
        return self.system.d

    @property
    def level(self) -> int:
        return self.system.n

    def inverse_value(self, i: int) -> GradedTensor:
        if self._inverses[i] is None:
            self._inverses[i] = self.system.inverse(self.values[i])
        return self._inverses[i]

    def increment(self, i: int, j: int) -> GradedTensor:
        if i == j:
            return self.system.unit()
        return self.system.mul(self.inverse_value(i), self.values[j])

    def recenter(self, s: int, a: GradedTensor, v: GradedTensor) -> GradedTensor:
        """g_s^{-1} a (v - v_0 1): the direction v at a, seen from the base point g_s."""
        system = self.system
        w = system.mul(a, v - v.scalar() * system.unit())
        return system.mul(self.inverse_value(s), w)

    def level_one(self, i: int) -> np.ndarray:
        """Degree-one coefficient block of the i-th value."""
        return np.array(self.values[i].levels[1])

    def dilate(self, c: float) -> "SampledGroupPath":
        return SampledGroupPath(
            self.system, self.times, [self.system.dilate(v, c) for v in self.values]
        )

    def restrict(self, indices) -> "SampledGroupPath":
        idx = list(indices)
        return SampledGroupPath(
            self.system, self.times[idx], [self.values[i] for i in idx]
        )

    def subgrid_of(self, other: "SampledGroupPath", tol: float = 1e-12) -> bool:
        pos = np.searchsorted(other.times, self.times)
        pos = np.clip(pos, 0, len(other) - 1)
        ok = np.abs(other.times[pos] - self.times) <= tol
        return bool(np.all(ok))

    # -- increment norm cache ------------------------------------------------
    def increment_norms(self) -> np.ndarray:
        """Homogeneous norms of all pairwise increments (i < j)."""
        if self._dist is None:
            N = len(self)
            dist = np.zeros((N, N))
            if isinstance(self.system, WordSystem):
                dist = self._increment_norms_batched()
            else:
                for i in range(N):
                    for j in range(i + 1, N):
                        dist[i, j] = self.system.homogeneous_norm(self.increment(i, j))
            self._dist = dist
        return self._dist

    def _increment_norms_batched(self) -> np.ndarray:
        system = self.system
        N = len(self)
        stacked = [np.stack([v.levels[k] for v in self.values]) for k in range(system.n + 1)]
        inv = system.inverse_levels(stacked)
        dist = np.zeros((N, N))
        for i in range(N - 1):
            left = [l[i] for l in inv]
            rows = system.mul_levels([l[None, :] for l in left], [l[i + 1 :] for l in stacked])
            norms = np.zeros(N - i - 1)
            for k in range(1, system.n + 1):
                block = np.abs(rows[k]).sum(axis=-1)
                nz = block > 0
                norms[nz] += block[nz] ** (1.0 / k)
            dist[i, i + 1 :] = norms
        return dist


def grid_triples(N: int, max_triples: int | None = None):
    """Grid triples s < u < t in lexicographic order, lazily.

    With a cap, every stride-th triple, ``stride = C(N, 3) // max_triples + 1``,
    so memory stays O(1) whatever N is.
    """
    total = math.comb(N, 3)
    stride = 1 if max_triples is None or total <= max_triples else total // max_triples + 1
    return itertools.islice(itertools.combinations(range(N), 3), 0, None, stride)


def chen_residual(path: SampledGroupPath, max_triples: int | None = None) -> float:
    """Largest coefficient residual of increment(s,u) increment(u,t) -
    increment(s,t) over grid triples s < u < t."""
    system = path.system
    N = len(path)
    tri = np.array(list(grid_triples(N, max_triples)), dtype=np.int64).reshape(-1, 3)
    if len(tri) == 0:
        return 0.0
    stacked = [np.stack([v.levels[k] for v in path.values]) for k in range(system.n + 1)]
    inv = system.inverse_levels(stacked)
    # all ordered-pair increments, addressed as i * N + j
    ii, jj = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    ii, jj = ii.reshape(-1), jj.reshape(-1)
    incs = system.mul_levels([l[ii] for l in inv], [l[jj] for l in stacked])
    s, u, t = tri[:, 0], tri[:, 1], tri[:, 2]
    prod = system.mul_levels(
        [l[s * N + u] for l in incs], [l[u * N + t] for l in incs]
    )
    worst = 0.0
    for k in range(system.n + 1):
        worst = max(worst, float(np.abs(prod[k] - incs[k][s * N + t]).max()))
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
    """Running step-n signature of a piecewise-linear path, by Chen products."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 2:
        raise ValueError("need at least two sample points")
    d = pts.shape[1]
    system = tensor_system("nilpotent", d, n)
    if times is None:
        times = np.arange(pts.shape[0], dtype=float)
    g = system.unit()
    values = [g]
    for k in range(pts.shape[0] - 1):
        g = system.mul(g, signature_of_segment(pts[k + 1] - pts[k], n))
        values.append(g)
    return SampledGroupPath(system, times, values)


def path_from_increments(system: HopfSystem, times, step_values) -> SampledGroupPath:
    """Running products of per-interval group increments, starting at the unit."""
    g = system.unit()
    values = [g]
    for inc in step_values:
        g = system.mul(g, inc)
        values.append(g)
    return SampledGroupPath(system, times, values)


# -- p-variation ---------------------------------------------------------------

def p_variation(path: SampledGroupPath, p: float, window=None) -> float:
    """Exact p-variation over sub-partitions of the grid window, by DP."""
    if p < 1:
        raise ValueError("p-variation needs p >= 1")
    i0, i1 = (0, len(path) - 1) if window is None else window
    if i0 >= i1:
        return 0.0
    dist = path.increment_norms()
    return _pvar_dp(dist, p, i0, i1) ** (1.0 / p)


def _pvar_dp(dist: np.ndarray, p: float, i0: int, i1: int) -> float:
    # best[j] = max over partitions of [i0, j] ending at j of sum |inc|^p
    powers = dist[i0 : i1 + 1, i0 : i1 + 1] ** p
    m = i1 - i0 + 1
    best = np.zeros(m)
    for j in range(1, m):
        best[j] = np.max(best[:j] + powers[:j, j])
    return float(best[m - 1])


def vector_p_variation(xs: np.ndarray, p: float) -> float:
    """p-variation of a flat vector path under the ell-1 norm."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    N = xs.shape[0]
    dist = np.zeros((N, N))
    for i in range(N):
        dist[i, i + 1 :] = np.abs(xs[i + 1 :] - xs[i]).sum(axis=1)
    return _pvar_dp(dist, p, 0, N - 1) ** (1.0 / p)


@dataclass
class Control:
    """Superadditive two-parameter function on grid index pairs."""

    times: np.ndarray
    fn: object  # callable (i, j) -> float
    label: str = "control"

    def __call__(self, i: int, j: int) -> float:
        if j <= i:
            return 0.0
        return float(self.fn(i, j))

    def __add__(self, other: "Control") -> "Control":
        return Control(self.times, lambda i, j: self(i, j) + other(i, j), label=f"{self.label}+{other.label}")

    def superadditivity_residual(self, samples: int = 200, seed: int = 0) -> float:
        """Most negative value of w(s,t) - w(s,u) - w(u,t) over sampled triples."""
        rng = np.random.default_rng(seed)
        N = len(self.times)
        worst = 0.0
        for _ in range(samples):
            s, u, t = sorted(rng.choice(N, size=3, replace=False))
            if s == u or u == t:
                continue
            worst = min(worst, self(s, t) - self(s, u) - self(u, t))
        return worst


def control_from_pvar(path: SampledGroupPath, p: float) -> Control:
    """w(s,t) = |g|_{p-var,[s,t]}^p; superadditive by construction.

    Window values are memoized: certificates and removal schedules query the
    same windows repeatedly.
    """
    dist = path.increment_norms()
    cache: dict = {}

    def fn(i, j):
        hit = cache.get((i, j))
        if hit is None:
            hit = _pvar_dp(dist, p, i, j)
            cache[(i, j)] = hit
        return hit

    return Control(path.times, fn, label=f"pvar^{p}")


def uniform_control(times) -> Control:
    times = np.asarray(times, dtype=float)
    return Control(times, lambda i, j: times[j] - times[i], label="t-s")
