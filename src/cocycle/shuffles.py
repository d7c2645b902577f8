"""Shuffle and ordered-shuffle permutations of card stacks.

A shuffle of stacks with sizes ``(l_1, ..., l_k)`` is a permutation of
``0..m-1`` (``m = sum(l_i)``) that is increasing on each consecutive block of
source positions.  Permutations are stored as tuples ``p`` with ``p[i]`` the
target position of source card ``i``.

Ordered shuffles are the shuffles whose block-final cards land in rising
target positions, block by block.  They index the expansion of a time-ordered
product of iterated integrals in terms of a single higher iterated integral.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Enumeration is exponential in sum(lengths); this guards against typos.
_MAX_SHUFFLES = 2_000_000


def _multinomial(lengths: tuple[int, ...]) -> int:
    total, out = 0, 1
    for l in lengths:
        for i in range(1, l + 1):
            total += 1
            out = out * total // i
    return out


@lru_cache(maxsize=None)
def shuffles(lengths: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All shuffles of stacks of the given sizes, as position maps."""
    lengths = tuple(int(l) for l in lengths)
    if any(l < 0 for l in lengths):
        raise ValueError(f"negative stack size in {lengths}")
    lengths_pos = tuple(l for l in lengths if l > 0)
    m = sum(lengths_pos)
    if _multinomial(lengths_pos) > _MAX_SHUFFLES:
        raise ValueError(f"refusing to enumerate {lengths}: too many shuffles")
    # A shuffle <-> a word over block ids with prescribed multiplicities.
    blocks = [b for b, l in enumerate(lengths) if l > 0]
    out = []
    for word in _multiset_words(tuple(blocks), tuple(l for l in lengths if l > 0), m):
        perm = [0] * m
        starts = _block_starts(lengths)
        seen = {b: 0 for b in blocks}
        for pos, b in enumerate(word):
            perm[starts[b] + seen[b]] = pos
            seen[b] += 1
        out.append(tuple(perm))
    return tuple(out)


def _block_starts(lengths: tuple[int, ...]) -> list[int]:
    starts, acc = [], 0
    for l in lengths:
        starts.append(acc)
        acc += l
    return starts


def _multiset_words(blocks: tuple[int, ...], mults: tuple[int, ...], m: int):
    if m == 0:
        yield ()
        return
    for i, b in enumerate(blocks):
        if mults[i] == 0:
            continue
        rest = mults[:i] + (mults[i] - 1,) + mults[i + 1 :]
        for tail in _multiset_words(blocks, rest, m - 1):
            yield (b,) + tail


@lru_cache(maxsize=None)
def ordered_shuffles(lengths: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Shuffles whose block-final cards appear in rising target positions."""
    lengths = tuple(int(l) for l in lengths)
    if any(l <= 0 for l in lengths):
        raise ValueError(f"ordered shuffles need positive stack sizes, got {lengths}")
    finals = []
    acc = 0
    for l in lengths:
        acc += l
        finals.append(acc - 1)
    out = []
    for perm in shuffles(lengths):
        targets = [perm[f] for f in finals]
        if all(a < b for a, b in zip(targets, targets[1:])):
            out.append(perm)
    return tuple(out)


def invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def apply_inverse(block: np.ndarray, perm: tuple[int, ...], d: int) -> np.ndarray:
    """Pull a flat degree-m tensor back along the inverse of ``perm``.

    With ``out = apply_inverse(v, p, d)`` the coefficient of the word ``u`` in
    ``out`` is the coefficient of ``u o p^{-1}`` in ``v``; this is the linear
    action used when unshuffling an iterated integral.  (numpy's transpose
    composes indices with the inverse of its axes argument, so passing ``p``
    yields exactly ``u o p^{-1}``.)  Leading axes of ``block`` batch.
    """
    m = len(perm)
    if m <= 1:
        return block
    lead = block.shape[:-1]
    arr = block.reshape(lead + (d,) * m)
    axes = tuple(range(len(lead))) + tuple(len(lead) + q for q in perm)
    return np.ascontiguousarray(arr.transpose(axes)).reshape(lead + (d**m,))  # no -1: rows may be empty


def extend_fixing_last(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Extend a permutation of ``0..m-1`` to ``0..m`` leaving ``m`` fixed."""
    return perm + (len(perm),)
