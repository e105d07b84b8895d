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
from stripes.solvers import (ACTIVE_TOL, BACKTRACK, FLAT_TRIALS,
                             STALL_LIMIT, NoBracketError, brentq,
                             golden_section, projected_bb)

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


@pytest.mark.parametrize("case, stop, converged", [
    ("quadratic", "grad", True),
    ("one_iteration", "max_iter", False),
    ("flat", "line_search", False),
    ("coarse_tol_energy", "stall", True),
])
def test_projected_bb_reports_why_it_stopped(case, stop, converged):
    # an ill-conditioned quadratic, except that "flat" keeps its gradient
    # but gives every trial the start's energy, and "coarse_tol_energy"
    # counts every accepted step that gains less than 1 as a stall
    w = np.geomspace(1.0, 1e3, 6)

    def energy(x):
        if case == "flat":
            return 0.0
        return 0.5 * float(np.sum(w * (x - 0.3) ** 2))

    def grad(x):
        return w * (x - 0.3)

    x0 = np.full(6, 0.9)
    res = projected_bb(
        x0, energy(x0), energy, grad, 0.0, 1.0, step0=0.1,
        max_iter=1 if case == "one_iteration" else 500, tol_grad=1e-9,
        tol_energy=1.0 if case == "coarse_tol_energy" else 1e-300,
        trace_every=1)
    assert (res.stop, res.converged) == (stop, converged)
    if stop == "stall":
        assert res.iterations >= STALL_LIMIT


def _line_search(values, max_iter=1, certify=None):
    """One projected_bb run from x0 = 0 along the constant gradient 1, with
    trial step t = 2^-k returning values[k] relative to the start energy 0
    (0 below the listed steps); returns the result and the trial steps."""
    steps = []

    def energy(x):
        t = -float(x[0])
        steps.append(t)
        k = round(-math.log2(t))
        return values[k] if k < len(values) else 0.0

    res = projected_bb(np.zeros(3), 0.0, energy, np.ones_like, -10.0, 10.0,
                       step0=1.0, max_iter=max_iter, tol_grad=1e-9,
                       tol_energy=1e-300, trace_every=1, certify=certify)
    return res, steps


def _bound(slope, curv, s_max, calls):
    """A certificate that returns (slope, curv, s_max) and logs its calls."""
    def certify(x, g):
        calls.append((x.copy(), g.copy()))
        return slope, curv, s_max
    return certify


def test_certified_stop_makes_no_further_energy_call():
    # the unit step rises; the certificate proves every step <= 1/2 rises
    # too, so the search stops before trying 1/2
    calls = []
    res, steps = _line_search([1.0, -1.0], max_iter=50,
                              certify=_bound(1.0, 0.0, np.inf, calls))
    assert steps == [1.0]
    assert (res.stop, res.converged, res.iterations) == ("line_search",
                                                         False, 1)
    assert np.array_equal(res.x, np.zeros(3)) and res.energy == 0.0
    assert res.evals == 1 and res.step == 0.5
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], np.zeros(3))
    assert np.array_equal(calls[0][1], np.ones(3))


@pytest.mark.parametrize("slope, curv, s_max, trials", [
    (1.0, 0.0, 0.1, 4),      # stops at the first trial step <= s_max
    (1.0, 8.0, np.inf, 4),   # ... and with step * curv <= slope / 2
    (1.0, 1.0, 0.0, 6),      # never certified: the flat exit ends it
    (0.0, 0.0, np.inf, 6),   # a zero slope proves nothing
])
def test_certified_stop_needs_every_condition(slope, curv, s_max, trials):
    # every trial rises down to step 2^-3, then the energy is flat
    calls = []
    res, steps = _line_search([1.0] * 4, max_iter=50,
                              certify=_bound(slope, curv, s_max, calls))
    assert res.stop == "line_search" and len(steps) == res.evals == trials
    assert len(calls) == 1      # once per line search, however long


def test_certificate_is_not_built_when_the_first_trial_is_accepted():
    calls = []
    res, steps = _line_search([-1.0], certify=_bound(1.0, 0.0, 1.0, calls))
    assert (res.stop, res.energy, steps, calls) == ("max_iter", -1.0,
                                                    [1.0], [])


def test_without_a_certificate_a_rising_line_search_halves_on():
    # the same rise as the certified case: the search goes on to step 1/2
    res, steps = _line_search([1.0, -1.0])
    assert steps == [1.0, 0.5]
    assert (res.stop, res.energy, res.evals) == ("max_iter", -1.0, 2)


def test_flat_energy_ends_line_search_after_the_second_equal_trial():
    # trials rise above the start energy down to step 2^-4, and return it
    # exactly for every shorter step
    res, steps = _line_search([1.0] * 5, max_iter=50)
    assert steps == [2.0 ** -k for k in range(5 + FLAT_TRIALS)]
    assert (res.stop, res.converged, res.iterations) == ("line_search",
                                                         False, 1)
    assert np.array_equal(res.x, np.zeros(3)) and res.energy == 0.0
    # the step reported is the last trial's, halved once more
    assert res.step == steps[-1] * BACKTRACK


def test_one_equal_trial_does_not_stop_the_line_search():
    # the unit step returns the start energy, the half step decreases it
    res, steps = _line_search([0.0, -1.0])
    assert steps == [1.0, 0.5]
    assert (res.stop, res.energy) == ("max_iter", -1.0)
    assert np.array_equal(res.x, np.full(3, -0.5))


def test_equal_trials_apart_do_not_stop_the_line_search():
    # equal, higher, equal, then a decrease: no two equal trials in a row
    res, steps = _line_search([0.0, 1.0, 0.0, -1.0])
    assert steps == [1.0, 0.5, 0.25, 0.125]
    assert (res.stop, res.energy) == ("max_iter", -1.0)


def test_flat_case_costs_two_energy_calls():
    # the "flat" case of test_projected_bb_reports_why_it_stopped
    calls = []

    def energy(x):
        calls.append(x)
        return 0.0

    w = np.geomspace(1.0, 1e3, 6)
    res = projected_bb(np.full(6, 0.9), 0.0, energy, lambda x: w * (x - 0.3),
                       0.0, 1.0, step0=0.1, max_iter=500, tol_grad=1e-9,
                       tol_energy=1e-300, trace_every=1)
    assert (res.stop, res.converged) == ("line_search", False)
    assert len(calls) == FLAT_TRIALS == 2


# samples on both bounds, within ACTIVE_TOL of them, inside, and NaN
POINT = st.one_of(st.sampled_from([0.0, 1.0, 1e-13, 1.0 - 1e-13, np.nan]),
                  st.floats(0.0, 1.0))
GRAD = st.one_of(st.sampled_from([0.0, -0.0, np.nan]),
                 st.floats(-1e3, 1e3))


@SETTINGS
@given(xg=st.integers(1, 12).flatmap(
    lambda k: st.tuples(st.lists(POINT, min_size=k, max_size=k),
                        st.lists(GRAD, min_size=k, max_size=k))))
def test_grad_norm_zeroes_only_components_pushing_out(xg):
    x, g = (np.array(a) for a in xg)
    # the reference: zero every component at a bound that g pushes out
    pg = g.copy()
    pg[(x <= 0.0 + ACTIVE_TOL) & (pg > 0)] = 0.0
    pg[(x >= 1.0 - ACTIVE_TOL) & (pg < 0)] = 0.0
    ref = float(np.max(np.abs(pg)))
    res = projected_bb(x, 0.0, lambda y: 0.0, lambda y: g, 0.0, 1.0,
                       step0=1.0, max_iter=1, tol_grad=1e-6,
                       tol_energy=0.0, trace_every=1)
    assert repr(res.grad_norm) == repr(ref)     # NaN and the sign of 0


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
