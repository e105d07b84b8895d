"""The shared projected Barzilai-Borwein descent and golden-section search,
and the errors their callers raise when the search range holds no interior
minimum."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stripes import solvers
from stripes.energy import optimal_sharp_period
from stripes.onedim import ConvergenceError, optimal_period
from stripes.solvers import (ACTIVE_TOL, BACKTRACK, MAX_HALVINGS,
                             NoBracketError, golden_section, projected_bb,
                             scan_golden)

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
                       max_iter=500, tol_grad=1e-6, trace_every=1)
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
])
def test_projected_bb_reports_why_it_stopped(case, stop, converged):
    # an ill-conditioned quadratic, except that "flat" keeps its gradient
    # but gives every trial the start's energy
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
        trace_every=1)
    assert (res.stop, res.converged) == (stop, converged)


def test_projected_bb_stops_on_the_rounding_of_its_energies():
    # the quadratic of test_projected_bb_reports_why_it_stopped on top of
    # a constant 1e8: its energies round to 1.5e-8, so comparing them ends
    # the descent on rounding noise, above tol_grad but within the 1e4
    # tol_grad that a line-search stop counts as converged
    w = np.geomspace(1.0, 1e3, 6)

    def energy(x):
        return 1e8 + 0.5 * float(np.sum(w * (x - 0.3) ** 2))

    x0 = np.full(6, 0.9)
    res = projected_bb(x0, energy(x0), energy, lambda x: w * (x - 0.3),
                       0.0, 1.0, step0=0.1, max_iter=500, tol_grad=1e-9,
                       trace_every=1)
    assert (res.stop, res.converged) == ("line_search", True)
    assert 1e-9 <= res.grad_norm < 1e-5


def test_projected_bb_counts_a_line_search_stop_converged_near_tol_grad():
    # every trial returns the start energy, so none is accepted and the
    # search ends after MAX_HALVINGS trials; the projected gradient (600 at
    # the start) is within 1e4 tol_grad, so the stop counts as converged
    w = np.geomspace(1.0, 1e3, 6)
    res = projected_bb(np.full(6, 0.9), 0.0, lambda x: 0.0,
                       lambda x: w * (x - 0.3), 0.0, 1.0, step0=0.1,
                       max_iter=500, tol_grad=100.0, trace_every=1)
    assert (res.stop, res.converged, res.evals) == ("line_search", True,
                                                    MAX_HALVINGS)


def test_energy_path_accepts_only_decreases():
    # an ill-conditioned quadratic: every accepted trial lowers the energy,
    # and every trial of the descent is one energy call
    w = np.geomspace(1.0, 1e3, 6)
    trials = []

    def energy(x):
        trials.append(0.5 * float(np.sum(w * (x - 0.3) ** 2)))
        return trials[-1]

    x0 = np.full(6, 0.9)
    e0 = energy(x0)
    trials.clear()
    res = projected_bb(x0, e0, energy, lambda x: w * (x - 0.3), 0.0, 1.0,
                       step0=0.1, max_iter=500, tol_grad=1e-9,
                       trace_every=1)
    assert res.stop == "grad"
    energies = [e0] + [e for _, e, _ in res.trace]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert len(trials) == res.evals


def _line_search(values, max_iter=1, certify=None, lo=-10.0,
                 tol_grad=1e-9):
    """One projected_bb run from x0 = 0 along the constant gradient 1 on
    [lo, 10], whose k-th trial (step 2^-k while no trial is accepted)
    returns values[k] relative to the start energy 0 (0 past the list);
    returns the result and the distance each trial moved x."""
    steps = []

    def energy(x):
        k = len(steps)
        steps.append(-float(x[0]))
        return values[k] if k < len(values) else 0.0

    res = projected_bb(np.zeros(3), 0.0, energy, np.ones_like, lo, 10.0,
                       step0=1.0, max_iter=max_iter, tol_grad=tol_grad,
                       trace_every=1, certify=certify)
    return res, steps


def _bound(slope, curv, calls):
    """A certificate that returns (slope, curv) and logs its calls."""
    def certify(x, g):
        calls.append((x.copy(), g.copy()))
        return slope, curv
    return certify


def test_certified_stop_makes_no_further_energy_call():
    # the unit step rises; the certificate proves every step <= 1/2 rises
    # too, so the search stops before trying 1/2
    calls = []
    res, steps = _line_search([1.0, -1.0], max_iter=50,
                              certify=_bound(1.0, 0.0, calls))
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
    (1.0, 1.0, 0.0, MAX_HALVINGS),     # never certified: it runs out
    (0.0, 0.0, np.inf, MAX_HALVINGS),  # a zero slope proves nothing
])
def test_certified_stop_needs_every_condition(slope, curv, s_max, trials):
    # x = 0 moves down at unit speed and reaches lo = -s_max at s_max (a
    # denormal distance, whose rate overflows, stands for 0; x then sits
    # within ACTIVE_TOL of lo, so a zero tol_grad keeps the gradient test
    # from ending the descent before its line search); every trial rises
    # down to step 2^-3, then the energy is flat
    lo = -s_max if s_max > 0 else -5e-324
    assert solvers._step_to_bound(np.zeros(3), np.ones(3), lo, 10.0) \
        == s_max
    calls = []
    res, steps = _line_search([1.0] * 4, max_iter=50,
                              certify=_bound(slope, curv, calls), lo=lo,
                              tol_grad=0.0)
    assert res.stop == "line_search" and len(steps) == res.evals == trials
    # once per line search, however long, once a step is within s_max
    assert len(calls) == (1 if s_max > 0 else 0)


def test_certificate_is_not_built_when_the_first_trial_is_accepted():
    calls = []
    res, steps = _line_search([-1.0], certify=_bound(1.0, 0.0, calls))
    assert (res.stop, res.energy, steps, calls) == ("max_iter", -1.0,
                                                    [1.0], [])


def test_certificate_is_not_built_before_a_step_is_within_s_max():
    # s_max = 1/4: the unit step is rejected, and the halved step 1/2,
    # still beyond s_max, is accepted without a certificate
    calls = []
    res, steps = _line_search([1.0, -1.0], certify=_bound(1.0, 0.0, calls),
                              lo=-0.25)
    assert (res.stop, res.energy, res.step, calls) == ("max_iter", -1.0,
                                                       0.5, [])
    assert steps == [0.25, 0.25]        # both trials clipped at lo


def test_certificate_is_built_at_most_once_per_line_search():
    # every line search rejects three trials and accepts the fourth; the
    # zero slope certifies nothing, so each search halves on
    calls, trials = [], []

    def energy(x):
        trials.append(1)
        return -float(len(trials) // 4) + (0.0 if len(trials) % 4 == 0
                                           else 1.0)

    res = projected_bb(np.zeros(3), 0.0, energy, np.ones_like, -10.0, 10.0,
                       step0=1.0, max_iter=3, tol_grad=1e-9, trace_every=1,
                       certify=_bound(0.0, 0.0, calls))
    assert (res.stop, res.evals, res.energy) == ("max_iter", 12, -3.0)
    assert len(calls) == 3
    # each call is made at its own iterate: the accepted steps are 1/8
    # and, g being constant, 1/64 (the last step, halved thrice)
    assert [x[0] for x, _ in calls] == [0.0, -0.125, -0.140625]


def test_without_a_certificate_a_rising_line_search_halves_on():
    # the same rise as the certified case: the search goes on to step 1/2
    res, steps = _line_search([1.0, -1.0])
    assert steps == [1.0, 0.5]
    assert (res.stop, res.energy, res.evals) == ("max_iter", -1.0, 2)


def test_stall_without_a_certificate_ends_after_max_halvings_trials():
    # trials rise above the start energy down to step 2^-4, and return it
    # exactly for every shorter step: none is accepted
    res, steps = _line_search([1.0] * 5, max_iter=50)
    assert steps == [2.0 ** -k for k in range(MAX_HALVINGS)]
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


def test_trace_row_carries_the_accepted_step():
    # the unit step rises, the half step is accepted: its row and the
    # result record the half step
    res, steps = _line_search([1.0, -1.0])
    assert steps == [1.0, 0.5]
    assert res.trace == ((1, -1.0, 0.5),)
    assert (res.stop, res.step) == ("max_iter", 0.5)
    # along the quadratic, each row's step is the one that moved x there
    w = np.geomspace(1.0, 1e3, 6)
    trials = {}

    def energy(x):
        e = 0.5 * float(np.sum(w * (x - 0.3) ** 2))
        trials[e] = x
        return e

    x = np.full(6, 0.9)
    res = projected_bb(x, energy(x), energy, lambda x: w * (x - 0.3),
                       -10.0, 10.0, step0=0.1, max_iter=30, tol_grad=1e-9,
                       trace_every=1)
    assert len(res.trace) > 5
    for _, e, step in res.trace:
        assert np.array_equal(trials[e], x - step * (w * (x - 0.3)))
        x = trials[e]


def _projected_norm(x, g):
    """The reference projected-gradient norm on [0, 1]: the max-norm of g
    after zeroing every component at a bound that g pushes out."""
    pg = g.copy()
    pg[(x <= 0.0 + ACTIVE_TOL) & (pg > 0)] = 0.0
    pg[(x >= 1.0 - ACTIVE_TOL) & (pg < 0)] = 0.0
    return float(np.max(np.abs(pg)))


# samples on both bounds, within ACTIVE_TOL of them, inside, and NaN
POINT = st.one_of(st.sampled_from([0.0, 1.0, 1e-13, 1.0 - 1e-13, np.nan]),
                  st.floats(0.0, 1.0))
GRAD = st.one_of(st.sampled_from([0.0, -0.0, np.nan]),
                 st.floats(-1e3, 1e3))


@SETTINGS
@given(xg=array_shapes(min_dims=1, max_dims=2, max_side=12).flatmap(
    lambda shape: st.tuples(arrays(float, shape, elements=POINT),
                            arrays(float, shape, elements=GRAD))))
def test_grad_norm_zeroes_only_components_pushing_out(xg):
    # 1D profiles and the 2D fields that the flow descends
    x, g = xg
    res = projected_bb(x, 0.0, lambda y: 0.0, lambda y: g, 0.0, 1.0,
                       step0=1.0, max_iter=1, tol_grad=1e-6,
                       trace_every=1)
    # NaN and the sign of 0
    assert repr(res.grad_norm) == repr(_projected_norm(x, g))


@pytest.mark.parametrize("case, stop", [
    ("quadratic", "grad"),
    ("one_iteration", "max_iter"),
    ("flat", "line_search"),
])
def test_grad_norm_is_the_full_norm_at_every_stop(case, stop):
    # at x0 = 0.5 the largest g off the lower bound is 50 (0.2 w, w ~ 251)
    # and the largest -g off the upper one 400 (0.4 w, w = 1000): the
    # first half shows that the descent has not converged, and the second
    # gives the norm; "flat" keeps the gradient but gives every trial the
    # start's energy
    w = np.geomspace(1.0, 1e3, 6)
    c = np.array([0.3, 0.9] * 3)

    def energy(x):
        if case == "flat":
            return 0.0
        return 0.5 * float(np.sum(w * (x - c) ** 2))

    def grad(x):
        return w * (x - c)

    x0 = np.full(6, 0.5)
    res = projected_bb(
        x0, energy(x0), energy, grad, 0.0, 1.0, step0=0.1,
        max_iter=1 if case == "one_iteration" else 500, tol_grad=1e-9,
        trace_every=1)
    assert res.stop == stop
    # the norm of the last iteration's gradient, at the iterate it was
    # taken at: the start, unless the descent ended on its gradient test
    x = res.x if stop == "grad" else x0
    assert res.grad_norm == _projected_norm(x, grad(x))
    if stop != "grad":
        assert res.grad_norm == 400.0


def test_step_to_bound_pins_samples_pushed_out_of_the_box():
    v = np.full((8, 8), 0.5)
    v[0, 0], v[1, 1] = 0.0, 1.0
    g = np.zeros((8, 8))
    g[0, 0], g[1, 1] = 1.0, -1.0    # both pushed out: nothing moves
    assert solvers._step_to_bound(v, g, 0.0, 1.0) == np.inf
    g[2, 2] = 0.25                  # moves down, reaches 0 at s = 2
    assert solvers._step_to_bound(v, g, 0.0, 1.0) == 2.0


@pytest.mark.parametrize("grid", [-1, 0, 1, 2])
def test_scan_golden_rejects_a_grid_below_3(grid):
    calls = []
    with pytest.raises(ValueError, match=f"grid must be >= 3, got {grid}"):
        scan_golden(calls.append, 1.0, 2.0, grid)
    assert calls == []


def test_golden_section_evaluates_each_point_once():
    calls = []

    def f(t):
        calls.append(t)
        return (t - 1.3) ** 2

    x, v = golden_section(f, 0.0, 4.0, rel_tol=1e-6)
    assert len(calls) == len(set(calls))
    assert x in calls and v == (x - 1.3) ** 2


def _parabola_of(budget, calls):
    """(t - 1.3)^2, recording each t in ``calls`` and raising once it is
    called more than ``budget`` times, so a search that does not end
    fails instead of hanging."""
    def f(t):
        calls.append(t)
        if len(calls) > budget:
            raise RuntimeError(f"more than {budget} calls")
        return (t - 1.3) ** 2
    return f


@pytest.mark.parametrize("rel_tol", [1e-16, 1e-17, 1e-300, 5e-324])
def test_golden_section_ends_below_the_float_spacing(rel_tol):
    # no bracket around 1.3 is as narrow as rel_tol; the search ends once
    # a step no longer narrows it (80 calls from [1, 4])
    calls = []
    x, v = golden_section(_parabola_of(200, calls), 1.0, 4.0,
                          rel_tol=rel_tol)
    assert abs(x - 1.3) <= 1e-15 and v == (x - 1.3) ** 2


@pytest.mark.parametrize("rel_tol", [0.0, -1e-3, math.nan, math.inf,
                                     -math.inf])
def test_golden_section_rejects_a_tolerance_not_finite_and_positive(rel_tol):
    calls = []
    with pytest.raises(ValueError, match="rel_tol must be finite and "
                                         f"positive, got {rel_tol!r}"):
        golden_section(_parabola_of(200, calls), 1.0, 4.0, rel_tol=rel_tol)
    assert calls == []


def test_both_period_searches_stop_at_the_shared_tolerance(ps1, monkeypatch):
    tols = []

    def spy(f, lo, hi, rel_tol=solvers.PERIOD_TOL):
        tols.append(rel_tol)
        return golden_section(f, lo, hi, rel_tol)

    monkeypatch.setattr(solvers, "golden_section", spy)
    optimal_sharp_period(ps1)
    optimal_period(ps1, (0.3, 40.0), n=128)
    assert tols == [solvers.PERIOD_TOL] * 2


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
