"""Level-raising of finite p-variation group paths, one degree at a time.

Each step sews the one-step increments of the current path, each completed
one level up to a group element (word system: exp of log one level up;
forest system: the multiplicative character extension with vanishing
new-tree coefficients).  Lower levels are reproduced exactly (the truncation
is an algebra homomorphism), the new top level is the unique extension above
the Young threshold, extended values stay in the group, and signatures are
reproduced exactly on their own sample grid.  The increments are lifted all
at once, as stacked levels, and the sewn prefixes are the new path's levels.
The raw extension sews ``one_forms.LevelRaisingForm`` of the path instead,
with values in the unit-scalar algebra; both have the same limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import trees
from .algebra import ForestSystem, GradedTensor, HopfSystem, WordSystem, tensor_system
from .one_forms import AlgebraTarget, CertificateError
from .paths import SampledGroupPath, p_variation
from .sewing import sew_generic


def lift_into_group(system: HopfSystem, a, tol: float = 1e-8):
    """Complete grouplike elements one level up, fixing all lower levels.

    ``a`` is a tensor, or a level list whose leading axes batch (one row per
    step); the result is of the same kind, one level up.  Word system:
    exponentiate the logarithm at the higher truncation.  Forest system:
    extend the character multiplicatively (new-degree forests get the product
    of their tree values; genuinely new trees get zero).  The grouplike test
    is relative, row by row: ``tol * max(1, |a|)``.
    """
    levels = [np.array(l, dtype=float) for l in getattr(a, "levels", a)]
    residual = np.ravel(system.grouplike_residual(levels))
    bound = np.ravel(tol * np.maximum(1.0, system.norm(levels)))
    bad = np.flatnonzero(~(residual <= bound))
    if bad.size:
        i = bad[0]
        raise CertificateError(
            f"lift needs a grouplike input: step {i} has grouplike residual {residual[i]:.3e} "
            f"above the tolerance {bound[i]:.3e}"
        )
    n1 = system.n + 1
    upper = tensor_system(system.kind, system.d, n1)
    top = np.zeros(levels[0].shape[:-1] + (upper.dim(n1),))
    if isinstance(system, WordSystem):
        out = upper.exp_levels(system.log_levels(levels) + [top])
    elif isinstance(system, ForestSystem):
        for pos, forest in enumerate(upper._forests[n1]):
            if len(forest) < 2:
                continue  # a new tree: coefficient stays zero
            col = 1.0
            for t in forest:
                sz = trees.tree_size(t)
                col = col * levels[sz][..., system.forest_position(sz, (t,))]
            top[..., pos] = col
        out = levels + [top]
    else:
        raise TypeError(f"unsupported system {system!r}")
    return upper.from_levels(out) if isinstance(a, GradedTensor) else out


def lift_norm_ratio(a: GradedTensor) -> float:
    """Homogeneous-norm growth of the one-level completion (empirical C_n)."""
    system = a.system
    lifted = lift_into_group(system, a)
    base = system.homogeneous_norm(a)
    if base == 0.0:
        return 1.0
    return lifted.system.homogeneous_norm(lifted) / base


@dataclass
class ExtensionReport:
    """Per-level bookkeeping of an extension run."""

    p: float
    levels: list = field(default_factory=list)
    pvar_ratios: list = field(default_factory=list)  # |g^{m+1}| / |g^m| per level; None if |g^m| = 0


def extend_one_level(path: SampledGroupPath, p: float) -> SampledGroupPath:
    """Raise the truncation level of a path by one, by sewing its one-step
    increments, each completed into the group one level up."""
    m = path.level
    if m + 1 <= p:
        raise CertificateError(
            f"target level {m + 1} does not exceed p = {p}: below the Young threshold"
        )
    upper = tensor_system(path.system.kind, path.d, m + 1)

    def one_steps(i, j):
        return lift_into_group(path.system, path.increments(i, j))

    return SampledGroupPath(upper, path.times, sew_generic(one_steps, len(path), AlgebraTarget(upper)))


def extend_to_level(path: SampledGroupPath, n: int, p: float) -> tuple[SampledGroupPath, ExtensionReport]:
    """Iterate the one-level extension up to level n; reports p-var growth."""
    if n < path.level:
        raise ValueError("target level below the current level")
    report = ExtensionReport(p=p)
    cur = path
    base_pvar = p_variation(cur, p)
    while cur.level < n:
        cur = extend_one_level(cur, p)
        report.levels.append(cur.level)
        report.pvar_ratios.append(p_variation(cur, p) / base_pvar if base_pvar > 0 else None)
    return cur, report


def projection_residual(extended: SampledGroupPath, base: SampledGroupPath) -> float:
    """Largest coefficient deviation of the truncated extension from the base."""
    return max(float(np.abs(a - b).max()) for a, b in zip(extended.levels, base.levels))
