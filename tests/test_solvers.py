"""The shared projected Barzilai-Borwein descent, golden-section search and
Brent root finder, and the errors their callers raise when the search range
holds no interior minimum."""
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stripes.energy import optimal_sharp_period
from stripes.onedim import ConvergenceError, optimal_period
from stripes.solvers import (NoBracketError, brentq, golden_section,
                             projected_bb)

SETTINGS = settings(max_examples=200, deadline=None)


def test_projected_bb_separable_quadratic_hits_clipped_minimizer():
    rng = np.random.default_rng(40)
    w = rng.uniform(0.5, 5.0, 30)
    center = rng.uniform(-1.0, 2.0, 30)       # about half outside [0, 1]

    def energy(x):
        return 0.5 * float(np.sum(w * (x - center) ** 2))

    def grad(x):
        return w * (x - center)

    x0 = np.full(30, 0.5)
    res = projected_bb(x0, energy(x0), energy, grad, 0.0, 1.0, step0=1.0,
                       max_iter=500, tol_grad=1e-6, tol_energy=1e-300,
                       trace_every=1)
    assert res.converged and res.grad_norm < 1e-6
    # active samples sit exactly on their bound, free ones within
    # tol_grad / min(w) of the centre
    clipped = np.clip(center, 0.0, 1.0)
    active = clipped != center
    assert np.array_equal(res.x[active], clipped[active])
    assert np.max(np.abs(res.x - clipped)) < 2e-6
    energies = [energy(x0)] + [e for _, e, _ in res.trace]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    # the last iteration finds the projected gradient small and takes no step
    assert [it for it, _, _ in res.trace] == list(range(1, res.iterations))


def test_golden_section_evaluates_each_point_once():
    calls = []

    def f(t):
        calls.append(t)
        return (t - 1.3) ** 2

    x, v = golden_section(f, 0.0, 4.0, rel_tol=1e-6)
    assert len(calls) == len(set(calls))
    assert x in calls and v == (x - 1.3) ** 2


@pytest.mark.parametrize("h_range", [(10.0, 100.0), (0.01, 0.1)])
def test_optimal_sharp_period_without_interior_minimum(ps1, h_range):
    # the sharp optimum of PS1 sits at h* ~ 2.68
    with pytest.raises(NoBracketError):
        optimal_sharp_period(ps1, h_range=h_range)


def test_optimal_period_without_interior_minimum(ps1):
    # the 1D optimum of PS1 sits at h* ~ 1.58, below the whole range
    with pytest.raises(ConvergenceError, match="no interior minimum") as exc:
        optimal_period(ps1, (4.0, 16.0), grid=4, n=64)
    assert len(exc.value.trace) == 4


# SciPy's brentq is the oracle: the port must return the same float
def _both(f, xa, xb, tol=1e-14):
    return (brentq(f, xa, xb, xtol=tol, rtol=tol),
            scipy.optimize.brentq(f, xa, xb, xtol=tol, rtol=tol))


@SETTINGS
@given(st.floats(-8, 6), st.floats(0, 6), st.floats(-8, 6),
       st.floats(1e-3, 14))
def test_brentq_matches_scipy_on_gamma_updates(lb, lm, lw, gap):
    # the derivative of the gamma update on [m, inf), bracketed as
    # onedim.gamma_pointwise_optimum brackets it; a < b / m^2 puts the
    # root above m
    b, m, w = 10.0 ** lb, 10.0 ** lm, 10.0 ** lw
    a = b / m ** 2 * 10.0 ** -gap

    def dq(x):
        return a - b / x ** 2 + 2.0 * w * (x - m)

    assume(dq(m) < 0)
    hi = m + 1.0
    while dq(hi) < 0:
        hi *= 2.0
    ours, theirs = _both(dq, m, hi)
    assert ours == theirs


@SETTINGS
@given(c=st.floats(-5, 5))
@pytest.mark.parametrize("f", [lambda x, c: x ** 3 + x - c,
                               lambda x, c: math.tanh(3.0 * (x - c))],
                         ids=["cubic", "tanh"])
def test_brentq_matches_scipy_on_monotone_functions(f, c):
    ours, theirs = _both(lambda x: f(x, c), -6.0, 6.0)
    assert ours == theirs


def test_brentq_rejects_bracket_without_sign_change():
    with pytest.raises(ValueError, match="same sign"):
        brentq(lambda x: x ** 2 + 1.0, -1.0, 2.0, xtol=1e-14, rtol=1e-14)


@pytest.mark.parametrize("xa, xb", [(1.0, 3.0), (-2.0, 1.0)])
def test_brentq_returns_root_at_an_end_exactly(xa, xb):
    assert _both(lambda x: x - 1.0, xa, xb) == (1.0, 1.0)


def test_brentq_raises_when_iterations_run_out():
    def f(x):
        return x ** 3 - 2.0

    with pytest.raises(RuntimeError):
        scipy.optimize.brentq(f, 0.0, 100.0, xtol=1e-14, rtol=1e-14,
                              maxiter=2)
    with pytest.raises(RuntimeError, match="2 iterations"):
        brentq(f, 0.0, 100.0, xtol=1e-14, rtol=1e-14, maxiter=2)
    ours, theirs = _both(f, 0.0, 100.0)
    assert ours == theirs
