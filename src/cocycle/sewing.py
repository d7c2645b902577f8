"""The partition-product integral of a one-form against a group-valued path.

On sampled data the integral over a window is the ordered product of one-step
evaluations ``beta_{t_j}(g_{t_j}, g_{t_j, t_{j+1}})`` over the finest
available partition.  The integrals from the first grid time are the left
fold of those one-step values, computed once for all grid times; the order in
which the product associates cannot change them.  The point-removal rule of
the existence proof is a computation on the control alone
(:func:`point_removal`): repeatedly drop an interior point whose merged window
has control at most ``2/(l-1)`` of the total, accumulating the removal bound.

Convergence evidence comes from :func:`refine_and_compare`, which evaluates
the coarse-partition products against nested refinements.  One-step values
are read in batches through ``eval_rows``: all leaves at once, and all
windows of one partition or one estimate at once, as the target's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .one_forms import CertificateError, IntegrableReport, TimeVaryingOneForm, integrable_condition_check
from .paths import Control, SampledGroupPath, holder_quotients, sup_quotient


def zeta(theta: float, terms: int = 20000) -> float:
    """Riemann zeta for theta > 1, partial sum plus integral tail."""
    if theta <= 1.0:
        raise ValueError("zeta tail bound needs theta > 1")
    ks = np.arange(1, terms + 1, dtype=float)
    return float(np.sum(ks**-theta) + terms ** (1.0 - theta) / (theta - 1.0) + 0.5 * terms**-theta)


@dataclass
class SewingResult:
    """Indefinite integral on the grid plus the schedule's bookkeeping.

    ``prefixes`` stacks the integrals from the first grid time as target rows:
    an ``(N, dim)`` array, or the ``(N, dim_k)`` levels of an algebra target.
    Under the ``omega`` schedule ``removal_order`` and ``removal_bound`` hold
    the :func:`point_removal` budget of the control.
    """

    times: np.ndarray
    target: object
    prefixes: object
    theta: float
    omega: Control
    removal_order: list = field(default_factory=list)
    removal_bound: float = 0.0
    one_steps: object = None  # (i, j) index arrays -> one-step rows of those windows
    certificate: IntegrableReport | None = None

    @cached_property
    def values(self) -> list:
        """The prefixes one grid time at a time, as target values."""
        return [self.target.value(self.target.take(self.prefixes, i)) for i in range(len(self.times))]

    def increments(self, i, j):
        """Rows of the window integrals g_i^{-1} g_j of the prefixes; the index arrays broadcast."""
        t = self.target
        return t.mul(t.inverse(t.take(self.prefixes, i)), t.take(self.prefixes, j))

    def value(self, i: int, j: int):
        """The window integral, as a target value."""
        return self.target.value(self.target.unit() if i == j else self.increments(i, j))

    def local_estimates(self, windows) -> list:
        """Deviation of each window integral from its one-step approximation."""
        if self.one_steps is None:
            raise ValueError("no one-step evaluator attached")
        i, j = np.array(windows, dtype=np.int64).reshape(-1, 2).T
        return self.target.sigma_max_norms(self.target.sub(self.increments(i, j), self.one_steps(i, j))).tolist()

    def local_estimate(self, i: int, j: int) -> float:
        return self.local_estimates([(i, j)])[0]

    def dyadic_windows(self, min_len: int = 1):
        N = len(self.times)
        span = N - 1
        length = span
        while length >= max(1, min_len):
            for start in range(0, span - length + 1, max(1, length)):
                yield (start, start + length)
            if length == 1:
                break
            length = max(1, length // 2)

    def _window_controls(self, windows) -> tuple:
        """The windows' deviations from their one-step approximations and their controls."""
        i, j = np.array(windows, dtype=np.int64).reshape(-1, 2).T
        return np.array(self.local_estimates(windows)), self.omega.rows(i, j)

    def empirical_constant(self, min_len: int = 1) -> float:
        """sup over dyadic windows of deviation / omega^theta."""
        devs, w = self._window_controls(list(self.dyadic_windows(min_len)))
        return sup_quotient(holder_quotients(devs, w, self.theta))[0]

    def local_slope(self, floor: float = 1e-13) -> float:
        """Log-log regression slope of deviation against the control."""
        devs, w = self._window_controls(list(self.dyadic_windows()))
        kept = [(np.log(x), np.log(dev)) for x, dev in zip(w.tolist(), devs.tolist()) if x > 0 and dev > floor]
        return loglog_slope([x for x, _ in kept], [y for _, y in kept])

    def zeta_bound(self) -> float:
        """2^theta zeta(theta) w(0,T)^theta: the removal-argument envelope."""
        return 2.0**self.theta * zeta(self.theta) * self.omega(0, len(self.times) - 1) ** self.theta


def loglog_slope(xs, ys) -> float:
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.size < 2:
        return float("nan")
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(coef[0])


def sew_generic(one_steps, N: int, target):
    """The stacked running products of the one-step values over N grid times.

    ``one_steps(i, j)`` must produce the one-step rows over the windows
    (i, j) of two index arrays; it is called once, for all N - 1 leaves,
    and the target folds them from the left.
    """
    steps = np.arange(N - 1)
    return target.prefixes(one_steps(steps, steps + 1))


def point_removal(omega: Control, theta: float, N: int) -> tuple[list, float]:
    """The existence proof's point-removal order on N grid times and its budget.

    Each step drops the first interior point whose merged window has control
    at most ``2/(l-1)`` of the remaining window; the budget sums the merged
    windows' controls to the power theta.
    """
    pts = list(range(N))
    removals = []
    bound = 0.0
    while len(pts) > 2:
        total_w = omega(pts[0], pts[-1])
        budget = (2.0 / (len(pts) - 2)) * total_w + 1e-15 * max(1.0, total_w)
        merged = omega.rows(pts[:-2], pts[2:]).tolist()  # the window left by removing each interior point
        fits = [pos for pos, w in enumerate(merged) if w <= budget]
        # superadditivity guarantees a fit; the argmin guards float slack
        pick = (fits[0] if fits else int(np.argmin(merged))) + 1
        removals.append(pts[pick])
        bound += merged[pick - 1] ** theta
        del pts[pick]
    return removals, bound


def sew(
    beta: TimeVaryingOneForm,
    path: SampledGroupPath,
    omega: Control,
    theta: float,
    schedule: str = "ltr",
    certificate: IntegrableReport | None = None,
    check: bool = True,
) -> SewingResult:
    """Integrate a time-varying cocyclic one-form against a sampled path.

    Refuses when theta <= 1 (below the Young threshold) or when the
    integrable-condition certificate fails; pass ``certificate`` to reuse a
    precomputed one or ``check=False`` to override explicitly.  The
    ``omega`` schedule also records the control's :func:`point_removal`
    budget; the integral is the same under either schedule.
    """
    if schedule not in ("ltr", "omega"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if theta <= 1.0:
        raise CertificateError(f"theta = {theta} is at or below the Young threshold")
    if certificate is None and check:
        certificate = integrable_condition_check(beta, path, omega, theta, max_triples=2048)
    if certificate is not None and not certificate.ok:
        raise CertificateError(
            "integrable condition failed", detail=certificate
        )

    def one_steps(i, j):
        return beta.eval_rows(path, i, i, path.increments(i, j))

    prefixes = sew_generic(one_steps, len(path), beta.target)
    removals, bound = point_removal(omega, theta, len(path)) if schedule == "omega" else ([], 0.0)
    return SewingResult(
        times=path.times,
        target=beta.target,
        prefixes=prefixes,
        theta=theta,
        omega=omega,
        removal_order=removals,
        removal_bound=bound,
        one_steps=one_steps,
        certificate=certificate,
    )


@dataclass
class ConvergenceReport:
    """Coarse-to-fine partition products against the finest value."""

    meshes: list
    deviations: list
    exponent: float

    def decays_at_least(self, rate: float) -> bool:
        return np.isnan(self.exponent) or self.exponent >= rate


def refine_and_compare(
    beta: TimeVaryingOneForm,
    fine: SampledGroupPath,
    coarse: SampledGroupPath,
    omega: Control,
    theta: float,
) -> ConvergenceReport:
    """Partition products along a nested chain from coarse to the full grid.

    The chain inserts index midpoints level by level; deviations are measured
    against the next finer level, meshes as the largest window control.
    """
    if not coarse.subgrid_of(fine):
        raise ValueError("coarse grid is not nested in the fine grid")
    pos = np.searchsorted(fine.times, coarse.times)
    chain = [list(int(i) for i in pos)]
    while True:
        cur = chain[-1]
        nxt = []
        for a, b in zip(cur, cur[1:]):
            nxt.append(a)
            if b - a >= 2:
                nxt.append((a + b) // 2)
        nxt.append(cur[-1])
        if nxt == cur:
            break
        chain.append(nxt)

    tgt = beta.target

    def total_on(indices):
        a, b = np.array(indices[:-1]), np.array(indices[1:])
        rows = beta.eval_rows(fine, a, a, fine.increments(a, b))
        out = tgt.take(rows, 0)
        for r in range(1, len(a)):
            out = tgt.mul(out, tgt.take(rows, r))
        return out

    totals = [total_on(ix) for ix in chain]
    meshes, devs = [], []
    for lvl in range(len(chain) - 1):
        mesh = max(omega.rows(chain[lvl][:-1], chain[lvl][1:]).tolist())
        dev = float(tgt.sigma_max_norms(tgt.sub(totals[lvl], totals[-1])))
        meshes.append(mesh)
        devs.append(dev)
    # the bound decays like mesh-control^(theta-1); the regression measures it
    xs = [np.log(m) for m, dv in zip(meshes, devs) if m > 0 and dv > 1e-13]
    ys = [np.log(dv) for m, dv in zip(meshes, devs) if m > 0 and dv > 1e-13]
    exponent = loglog_slope(xs, ys) if xs else float("nan")
    return ConvergenceReport(meshes, devs, exponent)
