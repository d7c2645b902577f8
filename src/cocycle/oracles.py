"""Brute-force reference values: nested Riemann sums and exhaustive searches.

These never call the library kernels they are used to check.  All quadrature
is left-endpoint Riemann summation on a refined piecewise-linear grid with
two-level Richardson extrapolation; the reported tolerance is four times the
extrapolation residual.
"""

from __future__ import annotations

import itertools

import numpy as np


def _refine(points: np.ndarray, times: np.ndarray, mesh: int):
    """Subdivide each segment evenly so the grid has about ``mesh`` steps.

    Point i of segment k is ``x_k + (i / sub) (x_{k+1} - x_k)``, all points at once.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    times = np.asarray(times, dtype=float)
    nseg = pts.shape[0] - 1
    sub = max(1, int(np.ceil(mesh / nseg)))
    frac = np.arange(1, sub + 1) / sub
    ts = times[:-1, None] + frac * np.diff(times)[:, None]
    xs = pts[:-1, None, :] + frac[:, None] * np.diff(pts, axis=0)[:, None, :]
    return (
        np.concatenate([times[:1], ts.reshape(-1)]),
        np.concatenate([pts[:1], xs.reshape(-1, pts.shape[1])]),
    )


def _word_integral_on_grid(xs: np.ndarray, word: tuple[int, ...]) -> float:
    """Left-Riemann iterated integral of dx^{w_1} ... dx^{w_k} on the grid."""
    running = np.ones(xs.shape[0])
    for letter in word:
        dx = np.diff(xs[:, letter - 1])
        integ = np.concatenate([[0.0], np.cumsum(running[:-1] * dx)])
        running = integ
    return float(running[-1])


def quadrature_iterated_integral(points, word, mesh: int = 256, times=None):
    """Iterated integral of a piecewise-linear path over the rising simplex.

    Returns ``(value, tol)`` with the value Richardson-extrapolated from
    meshes ``mesh`` and ``2 * mesh``.
    """
    if mesh < 64:
        raise ValueError("mesh too coarse for the error model")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if times is None:
        times = np.arange(pts.shape[0], dtype=float)
    _, x1 = _refine(pts, times, mesh)
    _, x2 = _refine(pts, times, 2 * mesh)
    c1 = _word_integral_on_grid(x1, tuple(word))
    c2 = _word_integral_on_grid(x2, tuple(word))
    value = 2.0 * c2 - c1  # first-order extrapolation
    return value, 4.0 * abs(c2 - c1) + 1e-15


def branched_integral_on_grid(xs: np.ndarray, tree) -> np.ndarray:
    """Running tree-indexed integral x(tau) of a path given on a grid.

    ``x((label, children))_t = int prod_c x(c)_u dx^{label}_u`` with
    left-endpoint sums; a bare node is the coordinate increment path.
    """
    label, children = tree
    if not children:
        return xs[:, label - 1] - xs[0, label - 1]
    integrand = np.ones(xs.shape[0])
    for c in children:
        integrand = integrand * branched_integral_on_grid(xs, c)
    dx = np.diff(xs[:, label - 1])
    return np.concatenate([[0.0], np.cumsum(integrand[:-1] * dx)])


def quadrature_branched_integral(points, forest, mesh: int = 256, times=None):
    """Forest-indexed iterated integral (product over trees), extrapolated."""
    if mesh < 64:
        raise ValueError("mesh too coarse for the error model")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if times is None:
        times = np.arange(pts.shape[0], dtype=float)
    vals = []
    for m in (mesh, 2 * mesh):
        _, xs = _refine(pts, times, m)
        acc = 1.0
        for tree in forest:
            acc *= float(branched_integral_on_grid(xs, tree)[-1])
        vals.append(acc)
    value = 2.0 * vals[1] - vals[0]
    return value, 4.0 * abs(vals[1] - vals[0]) + 1e-15


def riemann_one_form_integral(deriv_arrays, points, mesh: int = 256, times=None):
    """Left-Riemann integral of a polynomial one-form along the path.

    ``deriv_arrays[l]`` holds the l-th derivative at 0 with shape
    ``(m, d) + (d,)*l`` (output, direction slot, then the symmetric
    derivative slots -- the interchange layout); the one-form value at x is
    its Taylor evaluation.  Returns ``(vector, tol)``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if times is None:
        times = np.arange(pts.shape[0], dtype=float)
    m = deriv_arrays[0].shape[0]

    def values_at(xs):
        """The one-form matrices ``(R, m, d)`` at the rows of xs; each contraction
        is one ``np.matmul`` over the rows, rounding as ``np.tensordot`` does per row."""
        col = xs[:, :, None]
        out = np.zeros((xs.shape[0], m, pts.shape[1]))
        for l, arr in enumerate(deriv_arrays):
            term = arr
            for c in range(l):
                flat = term.reshape(term.shape[: int(c > 0)] + (-1, term.shape[-1]))
                term = np.matmul(flat, col).reshape((xs.shape[0],) + term.shape[int(c > 0) : -1])
            out = out + term / _fact(l)
        return out

    vals = []
    for mm in (mesh, 2 * mesh):
        _, xs = _refine(pts, times, mm)
        steps = np.matmul(values_at(xs[:-1]), np.diff(xs, axis=0)[:, :, None])[:, :, 0]
        # the left-endpoint sum from zero, in grid order
        vals.append(np.cumsum(np.concatenate([np.zeros((1, m)), steps]), axis=0)[-1])
    value = 2.0 * vals[1] - vals[0]
    return value, 4.0 * float(np.abs(vals[1] - vals[0]).max()) + 1e-15


def _fact(l: int) -> float:
    out = 1.0
    for i in range(2, l + 1):
        out *= i
    return out


def exhaustive_pvariation(increment_norm, n_points: int, p: float) -> float:
    """Exact p-variation by enumerating every interior point subset.

    ``increment_norm(i, j)`` gives the increment norm between grid indices.
    Limited to 14 points (2^(N-2) subsets).
    """
    if n_points > 14:
        raise ValueError("exhaustive search limited to 14 points")
    if n_points < 2:
        return 0.0
    interior = list(range(1, n_points - 1))
    best = 0.0
    for r in range(len(interior) + 1):
        for subset in itertools.combinations(interior, r):
            pts = [0, *subset, n_points - 1]
            total = sum(increment_norm(a, b) ** p for a, b in zip(pts, pts[1:]))
            best = max(best, total)
    return best ** (1.0 / p)
