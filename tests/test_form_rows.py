"""Every one-form implements ``rows``; the per-row evaluations it replaced are kept here.

The level-raising, constant and polynomial forms once evaluated one tensor at
a time.  Those evaluations are the references below, and each batched
``rows`` is pinned to them byte for byte: on random unit-scalar rows, on every
one-step row the sewing reads (a scalar time against stacked increments), and
on the ``(R, 1)`` against ``(1, M)`` basis probes of ``probe_matrix``.
"""

import itertools

import numpy as np
import pytest

from cocycle import one_forms
from cocycle.algebra import GradedTensor, tensor_system
from cocycle.one_forms import (
    AlgebraTarget,
    FlatTarget,
    LevelRaisingForm,
    LipFunction,
    PolynomialCocyclicForm,
    TimeVaryingOneForm,
    basis_rows,
    constant_form_from_alpha,
    identity_form,
)
from cocycle.paths import path_from_increments, signature_piecewise_linear
from cocycle.shuffles import apply_inverse, ordered_shuffles
from conftest import random_character

# -- the per-row references ----------------------------------------------------------


def ref_level_raising(form, s, a, v):
    dom, up, m = form.domain, form.upper, form.m
    gi = GradedTensor(up, [l[s] for l in form._inv_padded])
    av = dom.mul(a, v)
    c1 = up.project(up.mul(gi, dom.embed(a, m + 1)), m)
    c2 = up.project(up.mul(gi, dom.embed(av, m + 1)), m)
    return up.mul(up.inverse(c1), c2)


def ref_constant(alpha):
    """The per-row closure of a constant form; ``alpha`` maps tensors."""

    def fn(form, s, a, v):
        domain, target = form.domain, form.target
        if isinstance(target, FlatTarget):
            av = domain.mul(a, v)
            return np.asarray(alpha(av)) - v.scalar() * np.asarray(alpha(a))
        return target.value(target.mul(target.inverse(alpha(a)), alpha(domain.mul(a, v))))

    return fn


def ref_polynomial(form, s, a, v):
    d = form.domain.d
    m = form.f.out_shape[0]
    derivs = [form.f.deriv(l, np.asarray(a.levels[1])) for l in range(form.lift_level)]
    out = v.scalar() * form.target.system.unit()
    for k, ls in form._tuples:
        total = sum(ls) + k
        block = np.zeros(d**total)
        for perm in ordered_shuffles(tuple(l + 1 for l in ls)):
            block = block + apply_inverse(v.levels[total], perm, d)
        cur = block.reshape(tuple(d ** (l + 1) for l in ls))
        for i, l in enumerate(ls):
            A = np.moveaxis(derivs[l], 1, -1).reshape(m, d ** (l + 1))
            cur = np.tensordot(A, cur, axes=([1], [i]))
            cur = np.moveaxis(cur, 0, i)
        out.levels[k][:] += cur.reshape(-1)
    return out


# -- the configurations ----------------------------------------------------------------


def _unit_scalar(system, rng, R):
    levels = [rng.normal(size=(R, system.dim(k))) * 0.5 for k in range(system.n + 1)]
    levels[0][:] = 1.0
    return levels


def _word_path(rng, d, n, N=6):
    return signature_piecewise_linear(rng.normal(size=(N, d)).cumsum(axis=0) * 0.4, n)


def _forest_path(rng, d, n, N=6):
    b = tensor_system("butcher", d, n)
    return path_from_increments(b, np.arange(float(N)), [random_character(b, rng, 0.4) for _ in range(N - 1)])


def _poly(rng, d, m):
    """A quadratic one-form R^d -> L(R^d, R^m) with random symmetric coefficients."""
    B = rng.normal(size=(m, d, d, d))
    B = sum(B.transpose((0,) + tuple(1 + q for q in perm)) for perm in itertools.permutations(range(3))) / 6
    A = rng.normal(size=(m, d, d))
    return LipFunction.from_polynomial([rng.normal(size=(m, d)), (A + A.transpose(0, 2, 1)) / 2, B], gamma=3.0)


def level_raising_cases():
    rng = np.random.default_rng(31)
    paths = {f"word d={d} n={n}": _word_path(rng, d, n) for d, n in ((2, 2), (3, 2), (2, 3))}
    paths["butcher d=2 n=2"] = _forest_path(rng, 2, 2)
    return {name: (LevelRaisingForm(g), g, ref_level_raising) for name, g in paths.items()}


def constant_cases():
    rng = np.random.default_rng(32)
    g = _word_path(rng, 2, 3)
    s, s2 = g.system, tensor_system("nilpotent", 2, 2)
    return {
        "identity": (identity_form(g.times, s), g, ref_constant(lambda t: t)),
        "truncation": (
            constant_form_from_alpha(g.times, s, AlgebraTarget(s2), lambda l: l[:3]),
            g,
            ref_constant(lambda t: s.truncate(t, 2)),
        ),
        "projection": (
            constant_form_from_alpha(g.times, s, FlatTarget(2), lambda l: l[1]),
            g,
            ref_constant(lambda t: np.array(t.levels[1])),
        ),
    }


POLY_CONFIGS = [(2, 1, 2, 4), (2, 2, 2, 4), (1, 1, 2, 4), (1, 1, 3, 9), (2, 2, 3, 6), (3, 2, 2, 3)]


def polynomial_cases():
    rng = np.random.default_rng(33)
    out = {}
    for d, m, lift, n in POLY_CONFIGS:
        g = _word_path(rng, d, n, N=5)
        form = PolynomialCocyclicForm(g.times, _poly(rng, d, m), lift, g.system)
        out[f"poly d={d} m={m} lift={lift} n={n}"] = (form, g, ref_polynomial)
    return out


CASES = {**level_raising_cases(), **constant_cases(), **polynomial_cases()}


def _same(rows, values, target):
    """Stacked rows equal, byte for byte, the per-row values stacked over the same shape."""
    if isinstance(target, FlatTarget):
        want = np.array(values).reshape(np.shape(rows))
        assert np.asarray(rows).tobytes() == want.tobytes()
        return
    for k, l in enumerate(rows):
        want = np.array([np.asarray(x.levels[k]) for x in values]).reshape(l.shape)
        assert l.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(CASES))
def test_rows_equal_the_per_row_reference_on_random_rows(name):
    form, g, ref = CASES[name]
    rng = np.random.default_rng(7)
    dom, R = form.domain, 6
    s = rng.integers(0, len(g), size=R)
    a, v = _unit_scalar(dom, rng, R), _unit_scalar(dom, rng, R)
    row = lambda x, i: dom.from_levels([l[i] for l in x])
    want = [ref(form, int(s[i]), row(a, i), row(v, i)) for i in range(R)]
    _same(form.rows(s, a, v), want, form.target)


@pytest.mark.parametrize("name", list(CASES))
def test_rows_equal_the_per_row_reference_on_the_sewn_steps(name):
    # a scalar time and base point against the stacked increments to every later point
    form, g, ref = CASES[name]
    for s in range(len(g) - 1):
        later = np.arange(s + 1, len(g))
        want = [ref(form, s, g.values[s], g.increment(s, t)) for t in later]
        _same(form.eval_rows(g, s, s, g.increments(s, later)), want, form.target)


@pytest.mark.parametrize("name", list(CASES))
def test_rows_equal_the_per_row_reference_on_basis_probes(name):
    # (R, 1) times and base points against (1, M) basis directions, as probe_matrix reads them;
    # at most five directions of each degree, spread over its basis
    form, g, ref = CASES[name]
    dom, times = form.domain, np.arange(2)
    for k in range(dom.n + 1):
        pick = np.unique(np.linspace(0, dom.dim(k) - 1, 5).astype(int))
        basis = [l[pick] for l in basis_rows(dom, k)]
        e = [dom.from_levels([l[i] for l in basis]) for i in range(len(pick))]
        for s in (times, np.zeros_like(times)):
            want = [ref(form, int(i), g.values[j], x) for i, j in zip(s, times) for x in e]
            _same(form.eval_rows(g, s[:, None], times[:, None], [l[None] for l in basis]), want, form.target)


def test_every_form_implements_only_rows():
    # one interface: eval and eval_rows are defined once, on the base class, from rows
    forms = [c for c in vars(one_forms).values()
             if isinstance(c, type) and issubclass(c, TimeVaryingOneForm) and c is not TimeVaryingOneForm]
    assert len(forms) >= 8
    for cls in forms:
        assert "eval" not in vars(cls) and "eval_rows" not in vars(cls), cls.__name__
        assert cls.rows is not TimeVaryingOneForm.rows, cls.__name__
