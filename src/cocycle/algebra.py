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

from dataclasses import dataclass
from functools import lru_cache

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
        return float(sum(np.abs(l).sum() for l in self.levels))

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

    def unit(self) -> GradedTensor:
        z = [np.zeros(self.dim(k)) for k in range(self.n + 1)]
        z[0][0] = 1.0
        return GradedTensor(self, z)

    def from_levels(self, levels) -> GradedTensor:
        return GradedTensor(self, levels)

    # -- product -----------------------------------------------------------
    def mul_levels(self, a, b):
        """Product on raw level lists; leading axes broadcast (batched)."""
        raise NotImplementedError

    def mul(self, a: GradedTensor, b: GradedTensor) -> GradedTensor:
        self.require_same(a.system)
        self.require_same(b.system)
        return GradedTensor(self, self.mul_levels(a.levels, b.levels))

    def inverse_levels(self, levels):
        s0 = np.asarray(levels[0])
        if not np.allclose(s0, 1.0, atol=1e-9):
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
    def exp(self, v: GradedTensor) -> GradedTensor:
        self.require_same(v.system)
        if abs(v.scalar()) > 1e-12:
            raise ValueError("exp needs degree-0 coefficient 0")
        out = self.unit()
        term = self.unit()
        for k in range(1, self.n + 1):
            term = (1.0 / k) * self.mul(term, v)
            out = out + term
        return out

    def log(self, a: GradedTensor) -> GradedTensor:
        self.require_same(a.system)
        if abs(a.scalar() - 1.0) > 1e-9:
            raise ValueError("log needs degree-0 coefficient 1")
        u = a - self.unit()
        out = self.zero()
        term = self.unit()
        for k in range(1, self.n + 1):
            term = self.mul(term, u)
            out = out + ((-1.0) ** (k + 1) / k) * term
        return out

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
    def homogeneous_norm(self, a: GradedTensor) -> float:
        """Sum over graded projections of the degree-rooted coefficient norm."""
        raise NotImplementedError

    def sigma_max_norm(self, a: GradedTensor) -> float:
        """Largest graded-projection norm; the max-over-sigma of the estimates."""
        raise NotImplementedError

    # -- group membership ------------------------------------------------------
    def grouplike_residual(self, a: GradedTensor) -> float:
        raise NotImplementedError

    def grouplike_check(self, a: GradedTensor, tol: float = 1e-9) -> bool:
        if abs(a.scalar() - 1.0) > tol:
            return False
        return self.grouplike_residual(a) <= tol

    # -- joint projections (the linear maps behind sigma_1 * ... * sigma_k) --
    def block_tuple_tensor(self, degrees: tuple[int, ...], a: GradedTensor) -> np.ndarray:
        """Linear image equal to sigma_1(a) x ... x sigma_k(a) on grouplikes.

        Returns an array of shape ``(dim(k_1), ..., dim(k_l))`` read from the
        degree-``sum(degrees)`` block of ``a``.
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
            acc = None
            for i in range(k + 1):
                term = a[i][..., :, None] * b[k - i][..., None, :]
                term = term.reshape(term.shape[:-2] + (-1,))
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    def homogeneous_norm(self, a: GradedTensor) -> float:
        return float(
            sum(
                float(np.abs(l).sum()) ** (1.0 / k)
                for k, l in enumerate(a.levels)
                if k >= 1 and np.abs(l).sum() > 0
            )
        )

    def sigma_max_norm(self, a: GradedTensor) -> float:
        return max(float(np.abs(l).sum()) for l in a.levels)

    def grouplike_residual(self, a: GradedTensor) -> float:
        """Largest violation of the shuffle relations of total degree <= n."""
        worst = abs(a.scalar() - 1.0)
        for k1 in range(1, self.n):
            for k2 in range(k1, self.n - k1 + 1):
                joint = self.block_tuple_tensor((k1, k2), a)
                direct = np.multiply.outer(
                    a.levels[k1].reshape(-1), a.levels[k2].reshape(-1)
                ).reshape(joint.shape)
                worst = max(worst, float(np.abs(joint - direct).max()))
        return worst

    def block_tuple_tensor(self, degrees, a: GradedTensor) -> np.ndarray:
        total = sum(degrees)
        if total > self.n:
            raise ValueError("degree overflow in joint projection")
        block = a.levels[total]
        acc = np.zeros(self.d**total)
        for perm in shuffles(tuple(degrees)):
            acc = acc + apply_inverse(block, perm, self.d)
        return acc.reshape(tuple(self.d**k for k in degrees))


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
        """Per degree k >= 1: reduced-coproduct rows grouped by factor degrees.

        table[k][(j1, j2)] = (out_idx, left_idx, right_idx, count) arrays.
        """
        table: list[dict] = [dict() for _ in range(self.n + 1)]
        self._row_counts = [0] * sum(len(level) for level in self._forests)
        flat = 0
        for k in range(1, self.n + 1):
            rows: dict[tuple[int, int], list] = {}
            for out_idx, f in enumerate(self._forests[k]):
                reduced = trees.reduced_coproduct(f)
                for left, right, c in reduced:
                    j1, j2 = trees.forest_size(left), trees.forest_size(right)
                    rows.setdefault((j1, j2), []).append(
                        (out_idx, self._pos[j1][left], self._pos[j2][right], c)
                    )
            for key, lst in rows.items():
                arr = np.array(lst, dtype=np.int64)
                table[k][key] = (arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3].astype(float))
        # per-index reduced term counts, for the structural bound
        self._max_row = 0
        for k in range(1, self.n + 1):
            for f in self._forests[k]:
                self._max_row = max(self._max_row, len(trees.reduced_coproduct(f)))
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
                if acc.ndim == 1:
                    np.add.at(acc, oi, vals)
                else:
                    flat = acc.reshape(-1, acc.shape[-1])
                    vflat = vals.reshape(-1, vals.shape[-1])
                    for r in range(flat.shape[0]):
                        np.add.at(flat[r], oi, vflat[r])
            out.append(acc)
        return out

    def homogeneous_norm(self, a: GradedTensor) -> float:
        total = 0.0
        for k in range(1, self.n + 1):
            total += float(np.sum(np.abs(a.levels[k]) ** (1.0 / k)))
        return total

    def sigma_max_norm(self, a: GradedTensor) -> float:
        worst = abs(a.scalar())
        for k in range(1, self.n + 1):
            if a.levels[k].size:
                worst = max(worst, float(np.abs(a.levels[k]).max()))
        return worst

    def grouplike_residual(self, a: GradedTensor) -> float:
        """Largest violation of (sigma1 sigma2)(a) = sigma1(a) sigma2(a)."""
        worst = abs(a.scalar() - 1.0)
        for k1 in range(1, self.n):
            for k2 in range(k1, self.n - k1 + 1):
                for i1, f1 in enumerate(self._forests[k1]):
                    for i2, f2 in enumerate(self._forests[k2]):
                        if k1 == k2 and i2 < i1:
                            continue
                        merged = trees.forest_concat(f1, f2)
                        lhs = a.levels[k1 + k2][self._pos[k1 + k2][merged]]
                        rhs = a.levels[k1][i1] * a.levels[k2][i2]
                        worst = max(worst, abs(lhs - rhs))
        return worst

    def block_tuple_tensor(self, degrees, a: GradedTensor) -> np.ndarray:
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
        return a.levels[total][gather]


@lru_cache(maxsize=None)
def tensor_system(kind: str, d: int, n: int) -> HopfSystem:
    if kind == "nilpotent":
        return WordSystem(d, n)
    if kind == "butcher":
        return ForestSystem(d, n)
    raise ValueError(f"unknown system kind {kind!r}")
