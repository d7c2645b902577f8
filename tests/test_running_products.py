"""Running products a level at a time.

``HopfSystem.running_products`` is pinned by ``tobytes`` against the row loop
it replaced for word systems, kept here as the reference: one ``mul_levels``
per grid row, g_0 = 1, g_{j+1} = g_j s_j.
"""

import numpy as np
import pytest

from cocycle.algebra import WordSystem, stack_levels, tensor_system
from cocycle.paths import signature_piecewise_linear
from conftest import random_character

ROWS = (1, 2, 3, 257)  # points: one point has no steps


def reference_running_products(system, steps):
    N = steps[0].shape[0] + 1
    levels = [np.empty((N, system.dim(k))) for k in range(system.n + 1)]
    g = system.unit_levels()
    for j in range(N):
        if j:
            g = system.mul_levels(g, [l[j - 1] for l in steps])
        for l, row in zip(levels, g):
            l[j] = row
    return levels


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape, k
        assert a.tobytes() == b.tobytes(), k


def segment_steps(system, rng, N):
    """Segment exponentials of N - 1 random increments, as stacked step levels."""
    lift = [np.zeros((N - 1, system.dim(k))) for k in range(system.n + 1)]
    if system.n >= 1:
        lift[1] = rng.normal(size=(N - 1, system.d))
    return system.exp_levels(lift)


def signed_zero_steps(system, rng, N):
    """Segment exponentials with some coefficients set to -0.0 and every third step the unit."""
    steps = segment_steps(system, rng, N)
    for l in steps[1:]:
        l[rng.random(l.shape) < 0.3] = -0.0
        l[::3] = 0.0
    return steps


def inexact_steps(system, rng, N):
    """Segment exponentials whose scalars are 1 + 2^-40: the row loop's route."""
    steps = segment_steps(system, rng, N)
    steps[0][:] = 1.0 + 2.0**-40
    return steps


@pytest.fixture
def mul_levels_calls(monkeypatch):
    calls = []
    mul = WordSystem.mul_levels
    monkeypatch.setattr(WordSystem, "mul_levels", lambda self, a, b: calls.append(1) or mul(self, a, b))
    return calls


@pytest.mark.parametrize("make", [segment_steps, signed_zero_steps, inexact_steps], ids=["exp", "signed-zero", "inexact"])
@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_word_running_products_match_row_loop(d, n, make, rng, mul_levels_calls):
    system = tensor_system("nilpotent", d, n)
    for N in ROWS:
        steps = make(system, rng, N)
        want = reference_running_products(system, steps)
        del mul_levels_calls[:]
        assert_same_bytes(system.running_products(steps), want)
        # unit scalars take the level route, other scalars the row loop
        assert len(mul_levels_calls) == (N - 1 if make is inexact_steps else 0)


@pytest.mark.parametrize("d,n", [(2, 3), (1, 4)])
def test_forest_running_products_match_row_loop(d, n, rng):
    system = tensor_system("butcher", d, n)
    for N in ROWS:
        steps = stack_levels(system, [random_character(system, rng) for _ in range(N - 1)])
        assert_same_bytes(system.running_products(steps), reference_running_products(system, steps))


def test_signature_takes_no_product_per_row(rng, mul_levels_calls):
    """Only the n products of the stacked segment series remain: none per grid row."""
    path = signature_piecewise_linear(rng.normal(size=(1000, 2)), 3)
    assert len(path) == 1000
    assert len(mul_levels_calls) <= 3
