"""Labelled rooted trees and forests with the admissible-cut coproduct.

A tree is ``(label, children)`` with children a canonically sorted tuple of
trees; a forest is a canonically sorted tuple of trees.  Labels run over
``1..d``.  Canonical sorting makes equal (non-planar) forests compare equal,
so forests can be used directly as dict keys and basis indices.

The coproduct of a tree splits it over all admissible cuts: the pruned
subforest goes to the left factor, the part containing the root to the right.
On forests the coproduct is multiplicative.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

Tree = tuple  # (label, tuple[Tree, ...])
Forest = tuple  # tuple[Tree, ...]

EMPTY_FOREST: Forest = ()


def tree(label: int, children=()) -> Tree:
    return (label, tuple(sorted(children)))


def tree_size(t: Tree) -> int:
    return 1 + sum(tree_size(c) for c in t[1])


def forest_size(f: Forest) -> int:
    return sum(tree_size(t) for t in f)


def forest_concat(a: Forest, b: Forest) -> Forest:
    return tuple(sorted(a + b))


def graft(forest: Forest, label: int) -> Tree:
    """Attach a forest to a new root with the given label."""
    return tree(label, forest)


def forest_str(f: Forest) -> str:
    return " ".join(_tree_str(t) for t in f) if f else "()"


def _tree_str(t: Tree) -> str:
    label, children = t
    if not children:
        return str(label)
    return f"{label}[{','.join(_tree_str(c) for c in children)}]"


def parse_forest(text: str) -> Forest:
    text = text.strip()
    if text in ("", "()"):
        return EMPTY_FOREST
    trees, pos = [], 0
    while pos < len(text):
        if text[pos] == " ":
            pos += 1
            continue
        t, pos = _parse_tree(text, pos)
        trees.append(t)
    return tuple(sorted(trees))


def _parse_tree(text: str, pos: int) -> tuple[Tree, int]:
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        raise ValueError(f"expected a label at position {pos} in {text!r}")
    label = int(text[pos:end])
    if end < len(text) and text[end] == "[":
        children, pos = [], end + 1
        while pos < len(text) and text[pos] != "]":
            if text[pos] == ",":
                pos += 1
                continue
            c, pos = _parse_tree(text, pos)
            children.append(c)
        if pos == len(text):
            raise ValueError(f"unclosed '[' in {text!r}")
        return tree(label, children), pos + 1
    return tree(label), end


@lru_cache(maxsize=None)
def forests_by_degree(d: int, n: int) -> tuple[tuple[Forest, ...], ...]:
    """All labelled forests of each degree 0..n over labels 1..d, sorted."""
    trees_k: list[list[Tree]] = [[] for _ in range(n + 1)]
    forests_k: list[list[Forest]] = [[] for _ in range(n + 1)]
    forests_k[0] = [EMPTY_FOREST]
    for k in range(1, n + 1):
        for label in range(1, d + 1):
            for f in forests_k[k - 1]:
                trees_k[k].append(tree(label, f))
        trees_k[k].sort()
        # Multisets of trees with total size k, built largest-first to avoid
        # generating each multiset more than once.
        acc: set[Forest] = set()

        def fill(remaining: int, bound: Tree | None, partial: tuple):
            if remaining == 0:
                acc.add(tuple(sorted(partial)))
                return
            for size in range(remaining, 0, -1):
                for t in trees_k[size]:
                    if bound is not None and t > bound:
                        continue
                    fill(remaining - size, t, partial + (t,))

        fill(k, None, ())
        forests_k[k] = sorted(acc)
    return tuple(tuple(f) for f in forests_k)


def forest_counts(d: int):
    """The number of forests of each degree 0, 1, 2, ... over labels 1..d, by recurrence.

    A tree of degree k + 1 is a labelled root over a forest of degree k, and
    forests (multisets of trees) are the Euler transform of trees:
    ``k f_k = sum_{j=1..k} c_j f_{k-j}`` with ``c_j = sum_{i | j} i t_i``.
    """
    f, t, c = [1], [0], [0]
    yield 1
    for k in itertools.count(1):
        t.append(d * f[k - 1])
        c.append(sum(i * t[i] for i in range(1, k + 1) if k % i == 0))
        f.append(sum(c[j] * f[k - j] for j in range(1, k + 1)) // k)
        yield f[k]


@lru_cache(maxsize=None)
def tree_coproduct(t: Tree) -> tuple[tuple[Forest, Forest, int], ...]:
    """Full admissible-cut coproduct of a tree, as (left, right, count) terms.

    Includes the trivial terms (t, empty) and (empty, t).  Uses the cocycle
    recursion: cutting below the root distributes over the children.
    """
    label, children = t
    terms: dict[tuple[Forest, Forest], int] = {(((t,)), EMPTY_FOREST): 1}
    for left, right, c in forest_coproduct_terms(tuple(children)):
        key = (left, (graft(right, label),))
        terms[key] = terms.get(key, 0) + c
    return tuple((l, r, c) for (l, r), c in sorted(terms.items()))


def forest_coproduct_terms(f: Forest) -> tuple[tuple[Forest, Forest, int], ...]:
    """Coproduct of a forest: the convolution of its trees' coproducts."""
    terms: dict[tuple[Forest, Forest], int] = {(EMPTY_FOREST, EMPTY_FOREST): 1}
    for t in f:
        nxt: dict[tuple[Forest, Forest], int] = {}
        for (l1, r1), c1 in terms.items():
            for l2, r2, c2 in tree_coproduct(t):
                key = (forest_concat(l1, l2), forest_concat(r1, r2))
                nxt[key] = nxt.get(key, 0) + c1 * c2
        terms = nxt
    return tuple((l, r, c) for (l, r), c in sorted(terms.items()))


def reduced_coproduct(f: Forest) -> tuple[tuple[Forest, Forest, int], ...]:
    """Coproduct terms with both factors of positive degree."""
    return tuple(
        (l, r, c)
        for l, r, c in forest_coproduct_terms(f)
        if l != EMPTY_FOREST and r != EMPTY_FOREST
    )
