"""Universal linear maps from group increments to product-space tensors.

These maps express formal iterated integrals of a group-valued path as linear
functionals of a single increment:

* :func:`double_integral` -- the two-factor map splitting the formal
  ``integral integral dg (x) dg`` (word system: sums of shuffle unshuffles;
  forest system at level 2: the ladder-tree readout).
* :func:`level_one_integral` -- the weaker variant whose second factor is the
  degree-one block only (word system: block re-bracketing; forest system at
  any level: grafted-tree readout).
* :func:`iterated_integral_map` / :func:`iterated_integral_closed` -- the
  word-system higher-factor maps, by recursion and by the ordered-shuffle
  closed form.

Outputs live in :class:`ProductTensor`: a block per tuple of factor degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import trees
from .algebra import ForestSystem, GradedTensor, HopfSystem, WordSystem
from .shuffles import apply_inverse, extend_fixing_last, shuffles


@dataclass
class ProductTensor:
    """Element of a tensor power of the graded algebra, stored blockwise.

    ``blocks[(j_1, ..., j_l)]`` is an ndarray of shape
    ``(dim(j_1), ..., dim(j_l))``.  Only blocks with every ``j_i >= 1`` are
    stored (the projections used throughout keep exactly those).
    """

    system: HopfSystem
    factors: int
    blocks: dict = field(default_factory=dict)

    def add_block(self, key: tuple[int, ...], array: np.ndarray):
        if key in self.blocks:
            self.blocks[key] = self.blocks[key] + array
        else:
            self.blocks[key] = np.array(array, dtype=float)

    def __add__(self, other: "ProductTensor") -> "ProductTensor":
        out = ProductTensor(self.system, self.factors, dict(self.blocks))
        for k, v in other.blocks.items():
            out.add_block(k, v)
        return out

    def __sub__(self, other: "ProductTensor") -> "ProductTensor":
        return self + (-1.0) * other

    def __rmul__(self, c: float) -> "ProductTensor":
        return ProductTensor(
            self.system, self.factors, {k: c * v for k, v in self.blocks.items()}
        )

    def norm(self) -> float:
        return float(sum(np.abs(v).sum() for v in self.blocks.values()))

    def block(self, key: tuple[int, ...]) -> np.ndarray:
        shape = tuple(self.system.dim(j) for j in key)
        return self.blocks.get(key, np.zeros(shape))

    def max_abs(self) -> float:
        vals = [float(np.abs(v).max()) for v in self.blocks.values() if v.size]
        return max(vals) if vals else 0.0


def _double_split_block_word(system: WordSystem, k: int, block: np.ndarray) -> dict:
    """Word-system action of the double-integral map on one degree-k block."""
    d = system.d
    lead = block.shape[:-1]
    out: dict[tuple[int, int], np.ndarray] = {}
    for k1 in range(1, k):
        k2 = k - k1
        acc = np.zeros(lead + (d**k,))
        for perm in shuffles((k1, k2 - 1)):
            acc = acc + apply_inverse(block, extend_fixing_last(perm), d)
        out[(k1, k2)] = acc.reshape(lead + (d**k1, d**k2))
    return out


def double_split_blocks(system: HopfSystem, k: int, block: np.ndarray) -> dict:
    """Blockwise double-integral map on a pure degree-k input; leading axes of ``block`` batch."""
    if isinstance(system, WordSystem):
        return _double_split_block_word(system, k, block)
    if isinstance(system, ForestSystem):
        if system.n != 2:
            raise ValueError(
                "the two-factor integral map exists for the forest system only at level 2"
            )
        if k != 2:
            return {}
        d = system.d
        out = np.zeros(block.shape[:-1] + (d, d))
        for j in range(1, d + 1):
            for i in range(1, d + 1):
                ladder = (trees.tree(i, (trees.tree(j),)),)
                out[..., j - 1, i - 1] = block[..., system.forest_position(2, ladder)]
        return {(1, 1): out}
    raise TypeError(f"unsupported system {system!r}")


def double_integral(a: GradedTensor) -> ProductTensor:
    """Formal second-order iterated integral of a group increment.

    Satisfies ``I(1) = I(V) = 0``, respects the grading, and obeys the
    two-factor splitting law on grouplike pairs (see
    :func:`double_integral_split_residual`).
    """
    system = a.system
    out = ProductTensor(system, 2)
    for k in range(2, system.n + 1):
        for key, arr in double_split_blocks(system, k, a.levels[k]).items():
            out.add_block(key, arr)
    return out


def level_one_split_blocks(system: HopfSystem, k: int, block: np.ndarray) -> dict:
    """Blockwise level-one map on a pure degree-k input; leading axes of ``block`` batch."""
    lead = block.shape[:-1]
    if isinstance(system, WordSystem):
        d = system.d
        return {(k - 1, 1): block.reshape(lead + (d ** (k - 1), d))}
    if isinstance(system, ForestSystem):
        out = np.zeros(lead + (system.dim(k - 1), system.dim(1)))
        for si, forest in enumerate(system._forests[k - 1]):
            for i in range(1, system.d + 1):
                grafted = (trees.graft(forest, i),)
                pos1 = system.forest_position(1, (trees.tree(i),))
                out[..., si, pos1] = block[..., system.forest_position(k, grafted)]
        return {(k - 1, 1): out}
    raise TypeError(f"unsupported system {system!r}")


def level_one_integral(a: GradedTensor) -> ProductTensor:
    """The restriction whose second factor is the degree-one block."""
    system = a.system
    out = ProductTensor(system, 2)
    for k in range(2, system.n + 1):
        for key, arr in level_one_split_blocks(system, k, a.levels[k]).items():
            out.add_block(key, arr)
    return out


_iter_matrix_cache: dict = {}


def _double_block_matrices(system: HopfSystem, k: int) -> dict:
    """Matrix form of the blockwise double-integral map on level k.

    Returns ``{(j1, j2): M}`` with ``M`` of shape ``(dim(j1) * dim(j2), dim(k))``.
    """
    key = (system.kind, system.d, system.n, k)
    cached = _iter_matrix_cache.get(("double",) + key)
    if cached is not None:
        return cached
    dim_k = system.dim(k)
    cols: dict[tuple[int, int], list] = {}
    for pos in range(dim_k):
        e = np.zeros(dim_k)
        e[pos] = 1.0
        for bk, arr in double_split_blocks(system, k, e).items():
            cols.setdefault(bk, []).append((pos, arr.reshape(-1)))
    out = {}
    for bk, entries in cols.items():
        rows = entries[0][1].shape[0]
        M = np.zeros((rows, dim_k))
        for pos, col in entries:
            M[:, pos] = col
        out[bk] = M
    _iter_matrix_cache[("double",) + key] = out
    return out


def iterated_block_matrices(system: WordSystem, k: int, factors: int) -> dict:
    """Matrix form of the (factors)-fold map on a pure degree-k block.

    ``{key: M}`` with ``M`` of shape ``(prod dims(key), dim(k))``; the
    recursion applies the two-factor map and recurses into the first factor.
    """
    cache_key = ("iter", system.kind, system.d, system.n, k, factors)
    cached = _iter_matrix_cache.get(cache_key)
    if cached is not None:
        return cached
    if factors == 1:
        out = {(k,): np.eye(system.dim(k))}
    else:
        out = {}
        for (j1, j2), M2 in _double_block_matrices(system, k).items():
            m2 = M2.reshape(system.dim(j1), system.dim(j2), system.dim(k))
            for key1, M1 in iterated_block_matrices(system, j1, factors - 1).items():
                comp = np.einsum("ab,bcd->acd", M1, m2).reshape(-1, system.dim(k))
                full_key = key1 + (j2,)
                if full_key in out:
                    out[full_key] = out[full_key] + comp
                else:
                    out[full_key] = comp
    _iter_matrix_cache[cache_key] = out
    return out


def iterated_integral_map(a: GradedTensor, factors: int) -> ProductTensor:
    """Word-system (factors)-fold formal iterated integral, by recursion."""
    system = a.system
    if not isinstance(system, WordSystem):
        raise ValueError("iterated integral maps are available for the word system only")
    if factors < 2 or factors - 1 > max(system.n - 1, 0):
        raise ValueError(f"factor count {factors} out of range for level {system.n}")
    out = ProductTensor(system, factors)
    for k in range(2, system.n + 1):
        for key, M in iterated_block_matrices(system, k, factors).items():
            dims = tuple(system.dim(j) for j in key)
            out.add_block(key, (M @ a.levels[k]).reshape(dims))
    return out


def iterated_integral_closed(a: GradedTensor, factors: int) -> ProductTensor:
    """Ordered-shuffle closed form of the word-system iterated map.

    Valid on grouplike inputs, where it agrees with
    :func:`iterated_integral_map`.
    """
    from .shuffles import ordered_shuffles

    system = a.system
    if not isinstance(system, WordSystem):
        raise ValueError("closed form available for the word system only")
    d = system.d
    out = ProductTensor(system, factors)
    for key in _degree_tuples(factors, system.n):
        total = sum(key)
        acc = np.zeros(d**total)
        for perm in ordered_shuffles(key):
            acc = acc + apply_inverse(a.levels[total], perm, d)
        out.add_block(key, acc.reshape(tuple(d**j for j in key)))
    return out


def _degree_tuples(parts: int, total_max: int):
    def rec(parts_left, budget):
        if parts_left == 0:
            yield ()
            return
        for j in range(1, budget - parts_left + 2):
            for rest in rec(parts_left - 1, budget - j):
                yield (j,) + rest

    yield from rec(parts, total_max)


def left_mul_operator(a: GradedTensor, j: int, k: int) -> np.ndarray:
    """Matrix of w -> degree-k block of (a . w) on pure degree-j inputs."""
    system = a.system
    if k < j:
        raise ValueError("target degree below input degree")
    if isinstance(system, WordSystem):
        return np.kron(a.levels[k - j].reshape(-1, 1), np.eye(system.dim(j)))
    if isinstance(system, ForestSystem):
        L = np.zeros((system.dim(k), system.dim(j)))
        if k == j:
            L += a.scalar() * np.eye(system.dim(j))
        rows = system._table[k].get((k - j, j)) if k > j else None
        if rows is not None:
            oi, li, ri, c = rows
            np.add.at(L, (oi, ri), a.levels[k - j][li] * c)
        return L
    raise TypeError(f"unsupported system {system!r}")


def factorwise_left_mul(
    p: ProductTensor, a: GradedTensor, b: GradedTensor
) -> ProductTensor:
    """(a (x) b) . p : multiply factor 1 by a and factor 2 by b, projected
    back to blocks with both degrees >= 1 and total degree <= n."""
    system = p.system
    if p.factors != 2:
        raise ValueError("factorwise multiplication implemented for two factors")
    out = ProductTensor(system, 2)
    n = system.n
    for (j1, j2), arr in p.blocks.items():
        for k1 in range(j1, n - j2 + 1):
            for k2 in range(j2, n - k1 + 1):
                L1 = left_mul_operator(a, j1, k1)
                L2 = left_mul_operator(b, j2, k2)
                out.add_block((k1, k2), L1 @ arr @ L2.T)
    return out


def increment_pair_tensor(a: GradedTensor, b: GradedTensor) -> ProductTensor:
    """(a - 1) (x) (a (b - 1)) restricted to positive-degree blocks."""
    system = a.system
    u = a - system.unit()
    w = system.mul(a, b - system.unit())
    out = ProductTensor(system, 2)
    n = system.n
    for j1 in range(1, n):
        for j2 in range(1, n - j1 + 1):
            out.add_block((j1, j2), np.multiply.outer(u.levels[j1], w.levels[j2]))
    return out


def double_split_residual(a: GradedTensor, b: GradedTensor, primed: bool = False) -> float:
    """Residual of the splitting law on a grouplike pair.

    The law:  map(ab) = map(a) + proj((a (x) a) map(b)) + proj((a-1) (x) (a(b-1))),
    with proj the projection onto the blocks the map produces.
    """
    system = a.system
    fn = level_one_integral if primed else double_integral
    lhs = fn(system.mul(a, b))
    mid = factorwise_left_mul(fn(b), a, a)
    tail = increment_pair_tensor(a, b)
    if primed:
        mid = _project_last_degree_one(mid)
        tail = _project_last_degree_one(tail)
    rhs = fn(a) + mid + tail
    return (lhs - rhs).max_abs()


def _project_last_degree_one(p: ProductTensor) -> ProductTensor:
    out = ProductTensor(p.system, p.factors)
    for key, arr in p.blocks.items():
        if key[-1] == 1:
            out.add_block(key, arr)
    return out

