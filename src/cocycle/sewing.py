"""The partition-product integral of a one-form against a group-valued path.

On sampled data the integral over a window is the ordered product of one-step
evaluations ``beta_{t_j}(g_{t_j}, g_{t_j, t_{j+1}})`` over the finest
available partition; schedules differ in the association order (and in the
error bookkeeping), not in the value:

* ``left_to_right`` -- plain left fold, the reproducible default order;
* ``dyadic``        -- balanced binary reduction;
* ``omega_guided``  -- association shaped by the point-removal rule of the
  existence proof: repeatedly drop an interior point whose merged window has
  control at most ``2/(l-1)`` of the total, accumulating the removal bound.

Convergence evidence comes from :func:`refine_and_compare`, which evaluates
the coarse-partition products against nested refinements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .one_forms import CertificateError, IntegrableReport, TimeVaryingOneForm, integrable_condition_check
from .paths import Control, SampledGroupPath

SCHEDULES = {
    "omega": "omega",
    "omega_guided": "omega",
    "dyadic": "dyadic",
    "ltr": "ltr",
    "left_to_right": "ltr",
}


def zeta(theta: float, terms: int = 20000) -> float:
    """Riemann zeta for theta > 1, partial sum plus integral tail."""
    if theta <= 1.0:
        raise ValueError("zeta tail bound needs theta > 1")
    ks = np.arange(1, terms + 1, dtype=float)
    return float(np.sum(ks**-theta) + terms ** (1.0 - theta) / (theta - 1.0) + 0.5 * terms**-theta)


@dataclass
class SewingResult:
    """Indefinite integral values on the grid plus the schedule's bookkeeping."""

    times: np.ndarray
    target: object
    values: list
    theta: float
    omega: Control
    schedule: str
    total: object
    removal_order: list = field(default_factory=list)
    removal_bound: float = 0.0
    eval_pair: object = None
    certificate: IntegrableReport | None = None

    def value(self, i: int, j: int):
        """The window integral, from the multiplicative family of prefixes."""
        if i == j:
            return self.target.unit()
        return self.target.mul(self.target.inverse(self.values[i]), self.values[j])

    def local_estimate(self, i: int, j: int) -> float:
        """Deviation of the window integral from its one-step approximation."""
        if self.eval_pair is None:
            raise ValueError("no one-step evaluator attached")
        one = self.eval_pair(i, j)
        return self.target.sigma_max_norm(self.target.sub(self.value(i, j), one))

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

    def empirical_constant(self, min_len: int = 1) -> float:
        """sup over dyadic windows of deviation / omega^theta."""
        best = 0.0
        for i, j in self.dyadic_windows(min_len):
            w = self.omega(i, j)
            if w <= 0:
                continue
            best = max(best, self.local_estimate(i, j) / w**self.theta)
        return best

    def local_slope(self, floor: float = 1e-13) -> float:
        """Log-log regression slope of deviation against the control."""
        xs, ys = [], []
        for i, j in self.dyadic_windows():
            w = self.omega(i, j)
            dev = self.local_estimate(i, j)
            if w > 0 and dev > floor:
                xs.append(np.log(w))
                ys.append(np.log(dev))
        return loglog_slope(xs, ys)

    def zeta_bound(self) -> float:
        """2^theta zeta(theta) w(0,T)^theta: the removal-argument envelope."""
        return 2.0**self.theta * zeta(self.theta) * self.omega(0, len(self.times) - 1) ** self.theta

    def to_obj(self) -> dict:
        """JSON-ready dump: values per grid time plus per-interval estimates."""
        import numpy as _np

        def value_obj(v):
            if isinstance(v, _np.ndarray):
                return [float(x) for x in v]
            from .serialize import tensor_to_obj

            return tensor_to_obj(v)

        intervals = [
            {
                "window": [float(self.times[j]), float(self.times[j + 1])],
                "local_error": self.local_estimate(j, j + 1) if self.eval_pair else None,
                "omega": self.omega(j, j + 1),
            }
            for j in range(len(self.times) - 1)
        ]
        return {
            "schedule": self.schedule,
            "theta": self.theta,
            "times": [float(t) for t in self.times],
            "values": [value_obj(v) for v in self.values],
            "intervals": intervals,
            "removal_bound": self.removal_bound,
        }


def loglog_slope(xs, ys) -> float:
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.size < 2:
        return float("nan")
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(coef[0])


def sew_generic(eval_pair, N: int, target, omega: Control, theta: float, schedule: str):
    """Ordered product of one-step values; returns (prefixes, total, removals, bound).

    ``eval_pair(i, j)`` must produce the one-step value over window (i, j).
    """
    sched = SCHEDULES.get(schedule)
    if sched is None:
        raise ValueError(f"unknown schedule {schedule!r}")
    leaves = [eval_pair(j, j + 1) for j in range(N - 1)]
    prefixes = [target.unit()]
    for leaf in leaves:
        prefixes.append(target.mul(prefixes[-1], leaf))
    removals: list[int] = []
    bound = 0.0
    if sched == "ltr" or N <= 2:
        total = prefixes[-1]
    elif sched == "dyadic":
        total = _balanced(leaves, target)
    else:
        total, removals, bound = _omega_guided(leaves, eval_pair, target, omega, theta, N)
    return prefixes, total, removals, bound


def _balanced(leaves, target):
    work = list(leaves)
    while len(work) > 1:
        nxt = []
        for i in range(0, len(work) - 1, 2):
            nxt.append(target.mul(work[i], work[i + 1]))
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def _omega_guided(leaves, eval_pair, target, omega, theta, N):
    pts = list(range(N))
    split: dict[tuple[int, int], int] = {}
    removals = []
    bound = 0.0
    while len(pts) > 2:
        l = len(pts) - 1
        total_w = omega(pts[0], pts[-1])
        budget = (2.0 / (l - 1)) * total_w
        pick = None
        for pos in range(1, len(pts) - 1):
            if omega(pts[pos - 1], pts[pos + 1]) <= budget + 1e-15 * max(1.0, total_w):
                pick = pos
                break
        if pick is None:  # superadditivity guarantees one; guard float slack
            pick = int(
                np.argmin([omega(pts[p - 1], pts[p + 1]) for p in range(1, len(pts) - 1)])
            ) + 1
        a, u, b = pts[pick - 1], pts[pick], pts[pick + 1]
        split[(a, b)] = u
        removals.append(u)
        bound += omega(a, b) ** theta
        del pts[pick]

    def assemble(a, b):
        if b == a + 1:
            return leaves[a]
        u = split[(a, b)]
        return target.mul(assemble(a, u), assemble(u, b))

    return assemble(pts[0], pts[1]), removals, bound


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
    precomputed one or ``check=False`` to override explicitly.
    """
    if theta <= 1.0:
        raise CertificateError(f"theta = {theta} is at or below the Young threshold")
    if certificate is None and check:
        certificate = integrable_condition_check(beta, path, omega, theta, max_triples=2048)
    if certificate is not None and not certificate.ok:
        raise CertificateError(
            "integrable condition failed", detail=certificate
        )

    def eval_pair(i, j):
        return beta.eval_pair(path, i, j)

    prefixes, total, removals, bound = sew_generic(
        eval_pair, len(path), beta.target, omega, theta, schedule
    )
    return SewingResult(
        times=path.times,
        target=beta.target,
        values=prefixes,
        theta=theta,
        omega=omega,
        schedule=SCHEDULES[schedule],
        total=total,
        removal_order=removals,
        removal_bound=bound,
        eval_pair=eval_pair,
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

    def total_on(indices):
        vals = [beta.eval_pair(fine, a, b) for a, b in zip(indices, indices[1:])]
        out = vals[0]
        for v in vals[1:]:
            out = beta.target.mul(out, v)
        return out

    totals = [total_on(ix) for ix in chain]
    meshes, devs = [], []
    for lvl in range(len(chain) - 1):
        mesh = max(omega(a, b) for a, b in zip(chain[lvl], chain[lvl][1:]))
        dev = beta.target.sigma_max_norm(beta.target.sub(totals[lvl], totals[-1]))
        meshes.append(mesh)
        devs.append(dev)
    # the bound decays like mesh-control^(theta-1); the regression measures it
    xs = [np.log(m) for m, dv in zip(meshes, devs) if m > 0 and dv > 1e-13]
    ys = [np.log(dv) for m, dv in zip(meshes, devs) if m > 0 and dv > 1e-13]
    exponent = loglog_slope(xs, ys) if xs else float("nan")
    return ConvergenceReport(meshes, devs, exponent)
