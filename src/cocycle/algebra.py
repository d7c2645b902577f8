"""Truncated graded algebras whose product is induced by a coproduct table.

Two concrete systems are provided:

* ``WordSystem`` -- coefficients indexed by words over ``1..d`` (dense
  ``d**k`` blocks per degree); the coproduct is deconcatenation, so the
  product is truncated tensor-algebra multiplication and the grouplike
  elements are shuffle characters (signature-like elements).
* ``ForestSystem`` -- coefficients indexed by labelled rooted forests; the
  coproduct is the admissible-cut coproduct, the grouplike elements are the
  forest characters (Butcher-group elements).

Every element is a :class:`GradedTensor`: one dense coefficient block per
degree ``0..n``, ell-1 norms throughout.  All operations are pure; systems
are cached per ``(kind, d, n)`` and their tables are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import trees
from .shuffles import apply_inverse, shuffles


@dataclass(frozen=True)
class GradedIndex:
    """A basis index: a word (nilpotent) or a labelled forest (butcher)."""

    kind: str
    degree: int
    payload: tuple

    def __post_init__(self):
        if self.kind == "nilpotent":
            if len(self.payload) != self.degree:
                raise ValueError("word length must equal degree")
        elif self.kind == "butcher":
            if trees.forest_size(self.payload) != self.degree:
                raise ValueError("forest node count must equal degree")
        else:
            raise ValueError(f"unknown system kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "nilpotent":
            return ".".join(str(i) for i in self.payload) if self.payload else "()"
        return trees.forest_str(self.payload)


class GradedTensor:
    """Coefficient vector over the graded basis, truncated at level ``n``."""

    __slots__ = ("system", "levels")

    def __init__(self, system: "HopfSystem", levels):
        if len(levels) != system.n + 1:
            raise ValueError(f"expected {system.n + 1} levels, got {len(levels)}")
        self.system = system
        self.levels = tuple(np.asarray(l, dtype=float).reshape(-1) for l in levels)
        for k, l in enumerate(self.levels):
            if l.shape[0] != system.dim(k):
                raise ValueError(f"level {k} has size {l.shape[0]}, want {system.dim(k)}")

    def scalar(self) -> float:
        return float(self.levels[0][0])

    def norm(self) -> float:
        """ell-1 norm over all coefficients (the admissible norm)."""
        return float(self.system.norm(self))

    def __add__(self, other: "GradedTensor") -> "GradedTensor":
        self.system.require_same(other.system)
        return GradedTensor(self.system, [a + b for a, b in zip(self.levels, other.levels)])

    def __sub__(self, other: "GradedTensor") -> "GradedTensor":
        self.system.require_same(other.system)
        return GradedTensor(self.system, [a - b for a, b in zip(self.levels, other.levels)])

    def __rmul__(self, c: float) -> "GradedTensor":
        return GradedTensor(self.system, [c * l for l in self.levels])

    def __mul__(self, other):
        if isinstance(other, GradedTensor):
            return self.system.mul(self, other)
        return GradedTensor(self.system, [other * l for l in self.levels])

    def __repr__(self) -> str:
        s = self.system
        return f"GradedTensor({s.kind}, d={s.d}, n={s.n}, norm={self.norm():.3g})"


def stack_levels(system: "HopfSystem", tensors) -> list:
    """The levels of a sequence of tensors stacked as ``(N, dim_k)`` arrays."""
    return [
        np.array([t.levels[k] for t in tensors], dtype=float).reshape(-1, system.dim(k))
        for k in range(system.n + 1)
    ]


PAIRWISE_BLOCK = 128  # numpy's PW_BLOCKSIZE: longer rows are split in two


def coefficient_sums(a) -> np.ndarray:
    """Sums over the last, non-empty axis of ``a``, each added in the order numpy's
    add-reduce gives a contiguous row, whatever the layout of ``a``.

    numpy sums a contiguous row of n values from 0.0: one by one below 8 values,
    in eight interleaved accumulators joined pairwise up to 128 values, and as
    two such sums of halves (the first a multiple of 8 long) above that.  That
    order is replayed here one coefficient slice ``a[..., i]`` at a time, over
    the leading axes, so coefficients held in column layout sum over long rows
    with the bits of ``np.ascontiguousarray(a).sum(axis=-1)``; numpy's own sum
    of a transposed view adds one value at a time and rounds differently.
    """
    a = np.asarray(a, dtype=float)
    return _pairwise_sum(a, 0, a.shape[-1]) + 0.0  # numpy's initial 0.0


def _pairwise_sum(a, lo: int, n: int):
    """numpy's pairwise sum of the slices ``a[..., lo : lo + n]``, up to the sign
    of a zero sum (the caller's initial 0.0 makes it +0.0)."""
    if n < 8:
        acc = a[..., lo] if n == 1 else a[..., lo] + a[..., lo + 1]
        for i in range(lo + 2, lo + n):
            acc += a[..., i]
        return acc
    if n <= PAIRWISE_BLOCK:
        stop = lo + n - n % 8
        r = [a[..., lo + j] for j in range(8)]
        for i in range(lo + 8, stop, 8):
            r = [x + a[..., i + j] for j, x in enumerate(r)]
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(stop, lo + n):
            acc += a[..., i]
        return acc
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(a, lo, half) + _pairwise_sum(a, lo + half, n - half)


def has_unit_scalar(levels) -> bool:
    """Whether the degree-0 coefficients are 1, to the tolerance every inverse uses."""
    return bool(np.allclose(np.asarray(levels[0]), 1.0, atol=1e-9))


class HopfSystem:
    """Shared interface of the word and forest systems."""

    kind: str

    def __init__(self, d: int, n: int):
        if d < 1 or n < 0:
            raise ValueError("need d >= 1 and n >= 0")
        self.d = d
        self.n = n

    # -- basis bookkeeping -------------------------------------------------
    def dim(self, k: int) -> int:
        raise NotImplementedError

    def indices(self, k: int) -> tuple[GradedIndex, ...]:
        raise NotImplementedError

    def index_position(self, index: GradedIndex) -> int:
        raise NotImplementedError

    def all_indices(self):
        for k in range(self.n + 1):
            yield from self.indices(k)

    def structural_bound(self) -> int:
        """N(n): dominates the basis size and every coproduct row count."""
        raise NotImplementedError

    def require_same(self, other: "HopfSystem"):
        if self is not other and (self.kind, self.d, self.n) != (other.kind, other.d, other.n):
            raise ValueError(
                f"system mismatch: {self.kind}(d={self.d},n={self.n}) vs "
                f"{other.kind}(d={other.d},n={other.n})"
            )

    # -- constructors ------------------------------------------------------
    def zero(self) -> GradedTensor:
        return GradedTensor(self, [np.zeros(self.dim(k)) for k in range(self.n + 1)])

    def unit_levels(self) -> list:
        z = [np.zeros(self.dim(k)) for k in range(self.n + 1)]
        z[0][0] = 1.0
        return z

    def unit(self) -> GradedTensor:
        return GradedTensor(self, self.unit_levels())

    def from_levels(self, levels) -> GradedTensor:
        return GradedTensor(self, levels)

    # -- product -----------------------------------------------------------
    def mul_levels(self, a, b):
        """Product on raw level lists; leading axes broadcast (batched)."""
        raise NotImplementedError

    def mul_columns(self, a, cols):
        """Products of B left elements ``a`` (levels of shape ``(B, dim_k)``) with
        each of the M elements of ``cols`` held in column layout, ``cols[k]`` of
        shape ``(dim_k, M)``; ``out[k]`` has shape ``(B, dim_k, M)``, each left
        element's products in column layout.  Every coefficient is formed by
        the operations of :meth:`mul_levels`, in its order, over long
        contiguous rows instead of short coefficient axes.
        """
        raise NotImplementedError

    def mul(self, a: GradedTensor, b: GradedTensor) -> GradedTensor:
        self.require_same(a.system)
        self.require_same(b.system)
        return GradedTensor(self, self.mul_levels(a.levels, b.levels))

    def running_products(self, steps) -> list:
        """Stacked levels of g_0 = 1, g_{j+1} = g_j s_j for the stacked step levels ``steps``."""
        N = steps[0].shape[0] + 1
        levels = [np.empty((N, self.dim(k))) for k in range(self.n + 1)]
        g = self.unit_levels()
        for j in range(N):
            if j:
                g = self.mul_levels(g, [l[j - 1] for l in steps])
            for l, row in zip(levels, g):
                l[j] = row
        return levels

    def inverse_levels(self, levels):
        if not has_unit_scalar(levels):
            raise ValueError("inverse needs degree-0 coefficient 1")
        # Neumann series (1 + u)^{-1} = sum (-u)^k; exact at k = n since u has
        # lowest degree 1.
        neg_u = [1.0 - np.asarray(levels[0], dtype=float)]
        neg_u += [-np.asarray(l, dtype=float) for l in levels[1:]]
        result = [np.ones_like(neg_u[0])] + [np.zeros_like(l) for l in neg_u[1:]]
        term = result
        for _ in range(1, len(levels)):
            term = self.mul_levels(term, neg_u)
            result = [r + t for r, t in zip(result, term)]
        return result

    def inverse(self, a: GradedTensor) -> GradedTensor:
        self.require_same(a.system)
        return GradedTensor(self, self.inverse_levels(a.levels))

    # -- series ------------------------------------------------------------
    def exp_levels(self, v):
        """exp on raw level lists; leading axes batch.  Every row is the
        truncated series ``sum_k v^k / k!``, each term ``(1/k) (term v)``."""
        v = [np.asarray(l, dtype=float) for l in v]
        if np.any(np.abs(v[0]) > 1e-12):
            raise ValueError("exp needs degree-0 coefficient 0")
        term = self.unit_levels()
        out = [np.zeros(v[0].shape[:-1] + u.shape) + u for u in term]
        for k in range(1, self.n + 1):
            term = [(1.0 / k) * l for l in self.mul_levels(term, v)]
            out = [a + b for a, b in zip(out, term)]
        return out

    def log_levels(self, a):
        """log on raw level lists; leading axes batch.  Every row is the
        truncated series ``sum_k (-1)^(k+1) u^k / k`` of ``u = a - 1``."""
        a = [np.asarray(l, dtype=float) for l in a]
        if np.any(np.abs(a[0] - 1.0) > 1e-9):
            raise ValueError("log needs degree-0 coefficient 1")
        term = self.unit_levels()
        u = [l - e for l, e in zip(a, term)]
        out = [np.zeros_like(l) for l in u]
        for k in range(1, self.n + 1):
            term = self.mul_levels(term, u)
            out = [o + ((-1.0) ** (k + 1) / k) * t for o, t in zip(out, term)]
        return out

    def exp(self, v: GradedTensor) -> GradedTensor:
        self.require_same(v.system)
        return GradedTensor(self, self.exp_levels(v.levels))

    def log(self, a: GradedTensor) -> GradedTensor:
        self.require_same(a.system)
        return GradedTensor(self, self.log_levels(a.levels))

    # -- grading operators ---------------------------------------------------
    def truncate(self, a: GradedTensor, m: int) -> GradedTensor:
        """Drop coefficients of degree above m; result lives at level m."""
        self.require_same(a.system)
        if m > self.n:
            raise ValueError(f"cannot truncate level-{self.n} tensor to level {m}")
        return tensor_system(self.kind, self.d, m).from_levels(a.levels[: m + 1])

    def embed(self, a: GradedTensor, m: int) -> GradedTensor:
        """Zero-pad to a higher truncation level m >= n."""
        self.require_same(a.system)
        if m < self.n:
            raise ValueError("embed target level below current level")
        target = tensor_system(self.kind, self.d, m)
        levels = list(a.levels) + [np.zeros(target.dim(k)) for k in range(self.n + 1, m + 1)]
        return target.from_levels(levels)

    def project(self, a: GradedTensor, m: int) -> GradedTensor:
        """Kill coefficients of degree above m, staying at level n."""
        self.require_same(a.system)
        if m > self.n:
            raise ValueError("projection level above truncation level")
        levels = [l if k <= m else np.zeros_like(l) for k, l in enumerate(a.levels)]
        return self.from_levels(levels)

    def dilate(self, a: GradedTensor, c: float) -> GradedTensor:
        self.require_same(a.system)
        return self.from_levels([(c**k) * l for k, l in enumerate(a.levels)])

    # -- norms ---------------------------------------------------------------
    def norm(self, a):
        """ell-1 norm over all coefficients; ``a`` is a tensor or a level list,
        leading axes of the levels batch."""
        return sum(np.abs(l).sum(axis=-1) for l in getattr(a, "levels", a))

    def homogeneous_norm(self, a):
        """Sum over graded projections of the degree-rooted coefficient norm.

        ``a`` is a tensor or a level list; leading axes of the levels batch.
        """
        raise NotImplementedError

    def sigma_max_norm(self, a):
        """Largest graded-projection norm, the max-over-sigma of the estimates;
        ``a`` is a tensor or a level list, leading axes of the levels batch."""
        raise NotImplementedError

    # -- group membership ------------------------------------------------------
    def grouplike_residual(self, a):
        """Largest violation of the unit scalar and of the relations
        ``pi_{k1+k2}`` joint ``= pi_k1(a) x pi_k2(a)`` (shuffle relations of the
        word system, multiplicativity on forests), row by row.

        ``a`` is a tensor or a level list; leading axes of the levels batch.
        """
        levels = getattr(a, "levels", a)
        worst = np.abs(levels[0][..., 0] - 1.0)
        for k1 in range(1, self.n):
            for k2 in range(k1, self.n - k1 + 1):
                joint = self.block_tuple_tensor((k1, k2), levels)
                direct = levels[k1][..., :, None] * levels[k2][..., None, :]
                worst = np.maximum(worst, np.abs(joint - direct).max(axis=(-2, -1)))
        return worst

    def grouplike_check(self, a, tol=1e-9) -> bool:
        """Whether every row is grouplike to ``tol``, which broadcasts against the rows."""
        return bool(np.all(self.grouplike_residual(a) <= tol))

    # -- joint projections (the linear maps behind sigma_1 * ... * sigma_k) --
    def block_tuple_tensor(self, degrees: tuple[int, ...], a) -> np.ndarray:
        """Linear image equal to sigma_1(a) x ... x sigma_k(a) on grouplikes.

        Returns an array of shape ``(dim(k_1), ..., dim(k_l))`` read from the
        degree-``sum(degrees)`` block of ``a``.  ``a`` is a tensor or a level
        list; leading axes of the levels batch.
        """
        raise NotImplementedError


class WordSystem(HopfSystem):
    """Step-n truncated tensor algebra over R^d with deconcatenation coproduct."""

    kind = "nilpotent"

    def __init__(self, d: int, n: int):
        super().__init__(d, n)
        self._dims = [d**k for k in range(n + 1)]

    def dim(self, k: int) -> int:
        return self._dims[k]

    @lru_cache(maxsize=None)
    def indices(self, k: int) -> tuple[GradedIndex, ...]:
        words = [()]
        for _ in range(k):
            words = [w + (i,) for w in words for i in range(1, self.d + 1)]
        return tuple(GradedIndex(self.kind, k, w) for w in words)

    def index_position(self, index: GradedIndex) -> int:
        pos = 0
        for letter in index.payload:
            pos = pos * self.d + (letter - 1)
        return pos

    def structural_bound(self) -> int:
        # P_n is the n+1 degree projections; each coproduct row has at most
        # n-1 reduced pairs.
        return max(self.n + 1, max(self.n - 1, 0))

    def mul_levels(self, a, b):
        n = self.n
        out = []
        for k in range(n + 1):
            acc, dim = None, (self._dims[k],)  # no -1 in the reshape: rows may be empty
            for i in range(k + 1):
                term = a[i][..., :, None] * b[k - i][..., None, :]
                term = term.reshape(term.shape[:-2] + dim)
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    def mul_columns(self, a, cols):
        lead, M = a[0].shape[:-1], cols[0].shape[-1]
        spare = np.empty(math.prod(lead) * self._dims[-1] * M)  # one outer term at a time
        out = []
        for k in range(self.n + 1):
            acc = (a[0][..., :, None, None] * cols[k]).reshape(lead + (self._dims[k], M))
            for i in range(1, k + 1):
                term = spare[: acc.size].reshape(lead + (self._dims[i], self._dims[k - i], M))
                acc += np.multiply(a[i][..., :, None, None], cols[k - i], out=term).reshape(acc.shape)
            out.append(acc)
        return out

    def running_products(self, steps) -> list:
        """The prefixes of the row loop a level at a time, when every step scalar is 1.

        Level k of g_j s_j adds, in :meth:`mul_levels`' order, ``1 * s_k``, the
        terms ``g_i x s_{k-i}`` for 0 < i < k, and last ``g_k * 1 = g_k``.  IEEE
        addition commutes, so each row of level k is the row before it plus a
        term read from lower levels only: the terms of all rows are formed at
        once, then summed down the rows by one sequential ``np.add.accumulate``,
        which gives the bits of the loop.  Other steps take the loop.
        """
        if not np.all(steps[0] == 1.0):
            return super().running_products(steps)
        N = steps[0].shape[0] + 1  # no -1 in the reshapes: there may be no steps
        levels = [np.ones((N, 1))]
        spare = np.empty((N - 1) * self._dims[-1])  # one outer term at a time
        for k in range(1, self.n + 1):
            level = np.empty((N, self._dims[k]))
            level[0] = 0.0
            acc = level[1:]
            acc[...] = steps[k]
            for i in range(1, k):
                term = spare[: acc.size].reshape(N - 1, self._dims[i], self._dims[k - i])
                acc += np.multiply(levels[i][:-1, :, None], steps[k - i][:, None, :], out=term).reshape(acc.shape)
            np.add.accumulate(level, axis=0, out=level)
            levels.append(level)
        return levels

    def homogeneous_norm(self, a):
        levels = getattr(a, "levels", a)
        # each level summed in contiguous-row order whatever its layout; np.power,
        # not **: one tensor's sum is a numpy scalar, whose ** rounds unlike the
        # array power of a batch
        terms = (np.power(coefficient_sums(np.abs(levels[k])), 1.0 / k) for k in range(1, self.n + 1))
        return sum(terms, 0.0)

    def sigma_max_norm(self, a):
        return reduce(np.maximum, (np.abs(l).sum(axis=-1) for l in getattr(a, "levels", a)))

    def block_tuple_tensor(self, degrees, a) -> np.ndarray:
        total = sum(degrees)
        if total > self.n:
            raise ValueError("degree overflow in joint projection")
        block = getattr(a, "levels", a)[total]
        lead = block.shape[:-1]
        acc = np.zeros(lead + (self.d**total,))
        for perm in shuffles(tuple(degrees)):
            acc = acc + apply_inverse(block, perm, self.d)
        return acc.reshape(lead + tuple(self.d**k for k in degrees))


class ForestSystem(HopfSystem):
    """Step-n algebra on labelled forests with the admissible-cut coproduct."""

    kind = "butcher"

    def __init__(self, d: int, n: int):
        super().__init__(d, n)
        self._forests = trees.forests_by_degree(d, n)
        self._pos = [
            {f: i for i, f in enumerate(level)} for level in self._forests
        ]
        self._indices = tuple(
            tuple(GradedIndex(self.kind, k, f) for f in level)
            for k, level in enumerate(self._forests)
        )
        self._table = self._build_table()
        self._merge = {}

    def _build_table(self):
        """Per degree k >= 1: reduced-coproduct rows grouped by factor degrees, in
        one pass that also keeps the longest row count in ``_max_row``.

        table[k][(j1, j2)] = (out_idx, left_idx, right_idx, count) arrays.
        """
        place = {f: (k, i) for k, pos in enumerate(self._pos) for f, i in pos.items()}
        table: list[dict] = [dict() for _ in range(self.n + 1)]
        self._max_row = 0  # for the structural bound
        for k in range(1, self.n + 1):
            rows: dict[tuple[int, int], list] = {}
            for out_idx, f in enumerate(self._forests[k]):
                reduced = trees.reduced_coproduct(f)
                self._max_row = max(self._max_row, len(reduced))
                for left, right, c in reduced:
                    (j1, li), (j2, ri) = place[left], place[right]
                    rows.setdefault((j1, j2), []).append((out_idx, li, ri, c))
            for key, lst in rows.items():
                arr = np.array(lst, dtype=np.int64)
                table[k][key] = (arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3].astype(float))
        return table

    def dim(self, k: int) -> int:
        return len(self._forests[k])

    def indices(self, k: int):
        return self._indices[k]

    def index_position(self, index: GradedIndex) -> int:
        return self._pos[index.degree][index.payload]

    def forest_position(self, k: int, forest) -> int:
        return self._pos[k][forest]

    def structural_bound(self) -> int:
        return max(sum(len(level) for level in self._forests), self._max_row)

    def coproduct_rows(self, index: GradedIndex):
        """Reduced coproduct of one index, as (left, right, count) indices."""
        return trees.reduced_coproduct(index.payload)

    def mul_levels(self, a, b):
        n = self.n
        out = [a[0] * b[0]]
        for k in range(1, n + 1):
            acc = a[k] * b[0][..., :] + a[0][..., :] * b[k]
            for (j1, j2), (oi, li, ri, c) in self._table[k].items():
                vals = a[j1][..., li] * b[j2][..., ri] * c
                np.add.at(acc, (..., oi), vals)
            out.append(acc)
        return out

    def mul_columns(self, a, cols):
        out = [a[0][..., :, None] * cols[0]]
        for k in range(1, self.n + 1):
            acc = a[k][..., :, None] * cols[0] + a[0][..., :, None] * cols[k]
            for (j1, j2), (oi, li, ri, c) in self._table[k].items():
                vals = a[j1][..., li, None] * cols[j2][ri] * c[:, None]
                np.add.at(acc, (..., oi, slice(None)), vals)
            out.append(acc)
        return out

    def homogeneous_norm(self, a):
        levels = getattr(a, "levels", a)
        terms = (coefficient_sums(np.abs(levels[k]) ** (1.0 / k)) for k in range(1, self.n + 1))
        return sum(terms, 0.0)

    def sigma_max_norm(self, a):
        levels = getattr(a, "levels", a)
        return reduce(np.maximum, [np.abs(levels[0][..., 0])] + [np.abs(l).max(axis=-1) for l in levels[1:]])

    def block_tuple_tensor(self, degrees, a) -> np.ndarray:
        total = sum(degrees)
        if total > self.n:
            raise ValueError("degree overflow in joint projection")
        key = tuple(degrees)
        gather = self._merge.get(key)
        if gather is None:
            shape = tuple(self.dim(k) for k in degrees)
            gather = np.empty(shape, dtype=np.int64)
            for pos in np.ndindex(shape):
                merged = trees.EMPTY_FOREST
                for axis, k in enumerate(degrees):
                    merged = trees.forest_concat(merged, self._forests[k][pos[axis]])
                gather[pos] = self._pos[total][merged]
            self._merge[key] = gather
        return getattr(a, "levels", a)[total][..., gather]


@lru_cache(maxsize=None)
def tensor_system(kind: str, d: int, n: int) -> HopfSystem:
    if kind == "nilpotent":
        return WordSystem(d, n)
    if kind == "butcher":
        return ForestSystem(d, n)
    raise ValueError(f"unknown system kind {kind!r}")
