import warnings

import numpy as np
import pytest

from helpers import smooth_profile
from stripes import kernel, onedim, solvers
from stripes.energy import total_energy
from stripes.field import Profile1D, make_one_dimensional
from stripes.kernel import c_tau
from stripes.model import ModelParams
from stripes.onedim import (ConvergenceError, CrossingError,
                            chessboard_check, el_residual,
                            f1d, free_boundary_points, gamma_limit_study,
                            minimize_aux_penalized,
                            minimize_profile, obstacle_set, optimal_period,
                            reflect_left, reflect_right,
                            reflection_positivity_check)


def test_f1d_matches_total_energy(ps1):
    rng = np.random.default_rng(20)
    for n, L in ((64, 2.0), (128, 3.0)):
        g = Profile1D(n, L, smooth_profile(n, L, rng))
        u = make_one_dimensional(g, 1, 1, n)
        assert f1d(None, g, ps1) == pytest.approx(
            total_energy(u, ps1).total, rel=1e-10)


def test_f1d_gamma_infinity_on_plateaus(ps1):
    n, L = 64, 2.0
    g = Profile1D(n, L, np.full(n, 0.75))
    gam = np.full(n, np.inf)
    # infinite coefficient meeting zero gradient contributes nothing local
    val = f1d(gam, g, ps1)
    assert np.isfinite(val)
    varying = Profile1D(n, L, smooth_profile(n, L,
                                             np.random.default_rng(0)))
    assert f1d(np.full(n, np.inf), varying, ps1) == np.inf


def test_f1d_infinite_gamma_on_an_underflowing_slope_is_inf(ps1):
    # the slope 4.4e-308 is nonzero, but its square underflows to 0
    g = Profile1D(2, 1.0, [2.2e-308, 0.0])
    assert f1d([np.inf, np.inf], g, ps1) == np.inf


def test_f1d_infinite_gamma_is_inf_at_c_tau_one():
    # d=1, p=3, tau=1 gives C_tau = 1, so the gradient prefactor is 0
    ps = ModelParams(d=1, p=3.0, tau=1.0, eps=0.05, L=1.0)
    assert c_tau(ps) == 1.0
    g = Profile1D(2, 1.0, [0.0, 0.5])
    assert f1d([np.inf, np.inf], g, ps) == np.inf


def test_f1d_gamma_one_dominates_where_gradient_dominates(ps1):
    # gamma = 1 minimizes the local term pointwise wherever
    # alpha gamma^2 |g'|^2 >= W / alpha; a binary square wave (W = 0) is the
    # cleanest such profile
    n, L = 256, 2.0
    vals = np.zeros(n)
    vals[: n // 2] = 1.0
    g = Profile1D(n, L, vals)
    for gam in (1.2, 2.0, 10.0):
        assert f1d(None, g, ps1) < f1d(gam, g, ps1)


@pytest.mark.parametrize("bad, worst", [
    (-1.0, "-1.0"), (0.0, "0.0"), (np.nan, "nan"), (1.0 - 1e-9, "0.999"),
    ([1.0] * 31 + [np.nan], "nan"), ([2.0] * 31 + [0.5], "0.5")])
def test_gamma_below_one_or_nan_is_rejected(ps1, bad, worst):
    g = Profile1D(32, 2.0, smooth_profile(32, 2.0,
                                          np.random.default_rng(5)))
    gam = bad if np.isscalar(bad) else np.array(bad)
    calls = [lambda: f1d(gam, g, ps1),
             lambda: minimize_profile(ps1, 1.0, n=32, gamma=gam)]
    if np.isscalar(bad):
        x = np.linspace(0.0, 1.0, 33)
        calls.append(lambda: chessboard_check(
            gam, 0.5 + 0.4 * np.sin(np.pi * x), [0.0, 1.0], ps1, x_grid=x))
    for call in calls:
        with pytest.raises(ValueError, match=f"got {worst}"):
            call()


def test_gamma_within_clamp_tolerance_of_one_is_accepted(ps1):
    g = Profile1D(32, 2.0, smooth_profile(32, 2.0,
                                          np.random.default_rng(5)))
    assert np.isfinite(f1d(1.0 - 1e-13, g, ps1))


def test_reflections_are_involutive_about_half():
    g = np.array([0.2, 0.4, 0.5, 0.8, 0.9, 0.3])
    gl = reflect_left(g, 2)
    gr = reflect_right(g, 2)
    assert np.allclose(gl[: 3], g[: 3])
    assert np.allclose(gr[-4:], g[2:])
    # reflected halves mirror through the level 1/2
    assert np.allclose(gl[3:], 1.0 - g[:2][::-1])


def test_reflection_positivity_on_crossings(ps1):
    rng = np.random.default_rng(23)
    n, L = 64, 2.0
    for trial in range(10):
        g = smooth_profile(n, L, rng)
        i0 = int(rng.integers(1, n - 1))
        g[i0] = 0.5
        prof = Profile1D(n, L, g)
        lhs, rhs, gap = reflection_positivity_check(
            prof, i0 * L / n, ps1)
        assert gap >= -1e-8


def test_reflection_positivity_requires_crossing(ps1):
    prof = Profile1D(32, 2.0, np.full(32, 0.8))
    with pytest.raises(CrossingError):
        reflection_positivity_check(prof, 0.5, ps1)


def test_chessboard_equal_arcs_is_identity(ps1):
    # two equal odd-symmetric arcs periodize to the same profile: exact tie
    M = 160
    x = np.linspace(0.0, 2.0, M + 1)
    g = 0.5 + 0.4 * np.sin(np.pi * x)
    lhs, rhs, gap = chessboard_check(None, g, [0.0, 1.0, 2.0], ps1,
                                     x_grid=x)
    assert abs(gap) < 1e-8 * max(abs(lhs), 1.0)


def test_chessboard_single_arc_identity(ps1):
    M = 80
    x = np.linspace(0.0, 1.0, M + 1)
    g = 0.5 + 0.45 * np.sin(np.pi * x)
    lhs, rhs, gap = chessboard_check(None, g, [0.0, 1.0], ps1, x_grid=x)
    assert abs(gap) < 1e-8 * max(abs(lhs), 1.0)


def test_chessboard_uneven_arcs_nonnegative_gap(ps1):
    arcs = [0.0, 1.0, 2.5]
    M = 250
    x = np.linspace(0.0, 2.5, M + 1)
    g = np.where(x <= 1.0, 0.5 + 0.4 * np.sin(np.pi * x),
                 0.5 - 0.4 * np.sin(np.pi * (x - 1.0) / 1.5))
    lhs, rhs, gap = chessboard_check(None, g, arcs, ps1, x_grid=x)
    assert gap >= -1e-8


def test_chessboard_rejects_bad_windows(ps1):
    x = np.linspace(0.0, 1.0, 81)
    g = 0.5 + 0.4 * np.sin(np.pi * x)
    with pytest.raises(CrossingError):
        chessboard_check(None, g, [0.0, 0.513, 1.0], ps1, x_grid=x)
    g2 = g.copy()
    g2[40] = 0.1  # two-signed arc
    g2[0] = g2[-1] = 0.5
    with pytest.raises(CrossingError):
        chessboard_check(None, g2, [0.0, 1.0], ps1, x_grid=x)


def test_minimize_profile_structure(ps1):
    res = minimize_profile(ps1, 1.58, n=256)
    prof = res.profile
    G = prof.full()
    assert abs(G.g[0] - 0.5) < 1e-12
    # base half-period stays in [1/2, 1], mirrored half in [0, 1/2]
    assert np.all(prof.base_g >= 0.5)
    # energy of the reported profile matches the reported value
    assert f1d(None, G, ps1) == pytest.approx(res.value, rel=1e-10)


def test_minimize_profile_last_trace_row_is_final_iteration(ps1):
    res = minimize_profile(ps1, 1.58, n=64)
    assert res.trace[-1][0] == res.iterations
    assert res.stop in ("grad", "line_search")


def test_descent_and_f1d_share_one_marginal_table(ps1):
    # one truncation rule: the operator cache is keyed by the grid and the
    # model alone, so the descent and the energy of its result build one
    # table per (L, n)
    kernel._cached_marginal_operator.cache_clear()
    res = minimize_profile(ps1, 1.58, n=64)
    assert f1d(None, res.profile.full(), ps1) == res.value
    info = kernel._cached_marginal_operator.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_minimize_profile_monotone_plateau(ps1):
    res = minimize_profile(ps1, 1.58, n=512)
    gb = res.profile.base_g
    ob = gb >= 1.0 - 1e-9
    idx = np.nonzero(ob)[0]
    assert idx.size > 0
    rise = gb[: idx[0] + 1]
    fall = gb[idx[-1]:]
    assert np.max(np.abs(rise - np.sort(rise))) < 1e-6
    assert np.max(np.abs(fall - np.sort(fall)[::-1])) < 1e-6


def test_free_boundary_bounds(ps1):
    res = minimize_profile(ps1, 1.58, n=512)
    x1, x2 = free_boundary_points(res.profile)
    a = ps1.kernel_scale
    assert 0.0 < x1 < a
    assert 1.58 - a < x2 < 1.58


def test_obstacle_set_helper():
    G = np.array([0.5, 0.9, 1.0, 1.0, 0.7])
    mask = obstacle_set(G)
    assert list(mask) == [False, False, True, True, False]


def test_i_g_profile_odd_symmetry(ps1):
    # the reflected profile satisfies G(2h - x) = 1 - G(x), so the
    # interaction field is odd about the crossing: I_g(2h - x) = -I_g(x)
    res = minimize_profile(ps1, 1.58, n=256)
    prof = res.profile.full()
    ig = onedim._ProfileObjective.of(ps1, prof.L, prof.n).interaction(prof.g)
    mirrored = -np.roll(ig[::-1], 1)
    assert np.allclose(ig, mirrored, atol=1e-9 * np.max(np.abs(ig)))


def test_optimal_period_reference_point(ps1):
    # frozen regression values for the benchmark configuration at n=512
    res = optimal_period(ps1, (0.3, 40.0), n=512)
    assert res.h_star == pytest.approx(1.5806052254537448, rel=1e-4)
    assert res.c_star == pytest.approx(0.7734205422494789, rel=1e-6)
    assert len(res.trace) >= 12


def _cold_period_search(params, h_range, grid, tol, n):
    """The period search with every descent started cold: the log scan,
    then golden section on the bracket around its smallest value."""
    solved = {}

    def val(h):
        if h not in solved:
            solved[h] = minimize_profile(params, h, n=n).value
        return solved[h]

    hs = np.geomspace(*h_range, grid)
    i = int(np.argmin([val(h) for h in hs]))
    h_star, c_star = solvers.golden_section(val, hs[i - 1], hs[i + 1],
                                            rel_tol=tol)
    return h_star, c_star, solved


@pytest.mark.parametrize("n", [128, 512])
def test_warm_started_period_search_equals_the_cold_one(ps1, n):
    # the warm starts change how far each descent goes, not where it
    # stops: the same periods in the same order and the same h*, and
    # values within the descents' tolerance
    res = optimal_period(ps1, (0.3, 40.0), grid=12, n=n)
    h_star, c_star, cold = _cold_period_search(ps1, (0.3, 40.0), 12, 1e-3, n)
    assert [h for h, _ in res.trace] == list(cold)
    assert res.h_star == h_star
    assert res.c_star == pytest.approx(c_star, rel=1e-12)
    for h, value in res.trace:
        assert value == pytest.approx(cold[h], rel=1e-12)
    assert len(res.iterations) == len(res.trace)


def test_period_search_starts_inside_the_class_and_between_neighbours(
        ps1, monkeypatch):
    # every start is a feasible base profile; one with solved periods on
    # both sides lies sample by sample between their two profiles
    calls, descend = [], onedim.minimize_profile

    def spy(params, h, n=512, g0_base=None, gamma=None):
        res = descend(params, h, n=n, g0_base=g0_base, gamma=gamma)
        calls.append((h, g0_base, res.profile.base_g))
        return res

    monkeypatch.setattr(onedim, "minimize_profile", spy)
    res = optimal_period(ps1, (0.3, 40.0), grid=12, n=128)
    assert [h for h, _, _ in calls] == [h for h, _ in res.trace]
    assert calls[0][1] is None
    bracketed = 0
    for i, (h, start, _) in enumerate(calls[1:], 1):
        assert start[0] == start[-1] == 0.5
        assert np.all((start >= 0.5) & (start <= 1.0))
        below = [(k, g) for k, _, g in calls[:i] if k < h]
        above = [(k, g) for k, _, g in calls[:i] if k > h]
        if below and above:
            bracketed += 1
            ga, gb = max(below)[1], min(above)[1]
            assert np.all(start >= np.minimum(ga, gb))
            assert np.all(start <= np.maximum(ga, gb))
    assert bracketed == len(calls) - 12


def test_warm_started_period_search_takes_fewer_iterations(ps1):
    # 118 Newton iterations with every descent started cold
    res = optimal_period(ps1, (0.3, 40.0), grid=12, n=512)
    assert sum(res.iterations) <= 90


def test_negative_optimum_at_small_interface_width():
    # frozen oracle: at eps = 0.01 the optimal value turns negative
    ps = ModelParams(d=1, p=3.0, tau=0.05, eps=0.01, L=1.0)
    res = minimize_profile(ps, 4.0, n=16384)
    assert res.value < 0.0
    assert res.value == pytest.approx(-0.109928, abs=5e-3)


def test_el_residual_converges_under_refinement(ps1):
    gaps = []
    for n in (512, 1024, 2048):
        res = minimize_profile(ps1, 1.58, n=n)
        diag = el_residual(None, res.profile.full(), ps1)
        gaps.append(diag.first_integral_gap4)
        assert diag.gamma3_ok
        assert diag.xbar is not None
    assert gaps[1] < gaps[0] / 1.8
    assert gaps[2] < gaps[1] / 1.8


def test_gamma_pointwise_optimum_brute_force():
    rng = np.random.default_rng(24)
    for trial in range(50):
        a, b, w = rng.uniform(0.01, 2.0, 3)
        m = float(rng.choice([1.0, 10.0, 100.0]))
        star = float(onedim._gamma_update(np.array([a]), np.array([b]), m,
                                          w)[0])
        # objective a g + b / g + w (g - m)_+^2 over g >= 1
        grid = np.linspace(1.0, 10.0 * m + 20.0, 200001)
        vals = (a * grid + b / grid
                + w * np.maximum(grid - m, 0.0) ** 2)
        f_star = a * star + b / star + w * max(star - m, 0.0) ** 2
        assert f_star <= vals.min() + 1e-8


def test_penalized_family_raises_when_outer_loop_runs_out(ps1, monkeypatch):
    # the first round always counts as a decrease (from +inf), so one
    # round can never pass the stopping test
    with monkeypatch.context() as mp:
        mp.setattr(onedim, "OUTER_ITER", 1)
        with pytest.raises(ConvergenceError, match="1 outer iterations"):
            minimize_aux_penalized(10, ps1, 1.58, n=64)
    _, _, value = minimize_aux_penalized(10, ps1, 1.58, n=64)
    assert np.isfinite(value)


@pytest.mark.parametrize("schedule, message", [
    ((), r"one or more m >= 1, got \(\)"),
    ((1, 0.5), r"one or more m >= 1, got \(1, 0.5\)"),
    ((np.nan,), r"got \(nan,\)")])
def test_gamma_limit_study_rejects_a_bad_schedule_before_any_descent(
        ps1, monkeypatch, schedule, message):
    descents = []
    monkeypatch.setattr(onedim, "minimize_profile",
                        lambda *a, **kw: descents.append(a))
    with pytest.raises(ValueError, match=message):
        gamma_limit_study(ps1, 1.58, m_schedule=schedule, n=256)
    assert descents == []


BAD_HALF_PERIODS = pytest.mark.parametrize("h, message", [
    (-1.0, "h must be positive, got -1.0"),
    (0.0, "h must be positive, got 0.0"),
    (np.inf, "h must be finite, got inf"),
    (np.nan, "h must be finite, got nan")])


@BAD_HALF_PERIODS
def test_minimize_profile_rejects_a_bad_half_period_before_any_descent(
        ps1, monkeypatch, h, message):
    # named as h, before the kernel table could name the period L = 2h
    descents = []
    monkeypatch.setattr(onedim, "_newton_descent",
                        lambda *a, **kw: descents.append(a))
    with pytest.raises(ValueError, match=f"^{message}$"):
        minimize_profile(ps1, h, n=64)
    assert descents == []


@BAD_HALF_PERIODS
def test_gamma_limit_study_rejects_a_bad_half_period_before_any_descent(
        ps1, monkeypatch, h, message):
    descents = []
    monkeypatch.setattr(onedim, "minimize_profile",
                        lambda *a, **kw: descents.append(a))
    with pytest.raises(ValueError, match=f"^{message}$"):
        gamma_limit_study(ps1, h, m_schedule=(1, 10), n=64)
    assert descents == []


@BAD_HALF_PERIODS
def test_minimize_aux_penalized_rejects_a_bad_half_period_before_any_descent(
        ps1, monkeypatch, h, message):
    descents = []
    monkeypatch.setattr(onedim, "minimize_profile",
                        lambda *a, **kw: descents.append(a))
    with pytest.raises(ValueError, match=f"^{message}$"):
        minimize_aux_penalized(10.0, ps1, h, n=64)
    assert descents == []


def test_gamma_limit_study_collapses(ps1):
    rep = gamma_limit_study(ps1, 1.58, m_schedule=(1, 10, 100), n=8192)
    assert rep["measure_gamma_above"][-1] <= rep["grid_cell"]
    assert rep["strict_margin"] > 0.0
    assert rep["sup_gamma_minus_1"][-1] <= 0.01
    # once the coefficients have collapsed, the penalized value matches the
    # unit-coefficient minimum
    base = minimize_profile(ps1, 1.58, n=8192).value
    assert rep["value"][-1] == pytest.approx(base, abs=1e-6)


def test_gamma_limit_study_solves_each_distinct_descent_once(ps1,
                                                            monkeypatch):
    schedule = (1, 10, 100, 1000)
    calls, solve = [], onedim.minimize_profile

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(onedim, "minimize_profile", counted)
    rep = gamma_limit_study(ps1, 1.58, m_schedule=schedule, n=256)
    assert len(calls) == rep["descents_solved"] == 4
    assert rep["descents_reused"] == 7
    assert len(rep["descent_stops"]) == len(rep["descent_evals"]) == 4
    assert set(rep["descent_stops"]) == {"grad"}

    # the oracle: every m on its own, no descent shared between them
    calls.clear()
    alone = onedim.minimize_aux_penalized

    def unshared(*args, descents=None, **kwargs):
        return alone(*args, **kwargs)

    monkeypatch.setattr(onedim, "minimize_aux_penalized", unshared)
    oracle = gamma_limit_study(ps1, 1.58, m_schedule=schedule, n=256)
    assert len(calls) == 11
    assert oracle["descents_solved"] == oracle["descents_reused"] == 0
    for key in ("descents_solved", "descents_reused", "descent_stops",
                "descent_evals"):
        del rep[key], oracle[key]
    assert rep.keys() == oracle.keys()
    for key in rep:
        assert repr(rep[key]) == repr(oracle[key]), key


def test_minimize_profile_value_is_f1d_of_its_profile(ps1):
    n = 256
    finite = 1.0 + np.random.default_rng(31).uniform(0.0, 2.0, n)
    for gamma in (None, finite):
        res = minimize_profile(ps1, 1.58, n=n, gamma=gamma)
        assert res.value == f1d(gamma, res.profile.full(), ps1)
    # a start 1e-13 above the box that already meets the gradient test is
    # returned clipped: the value is the clipped profile's, not the start's
    g0 = res.profile.base_g.copy()
    g0[np.flatnonzero(g0 == 1.0)[5]] += 1e-13
    res = minimize_profile(ps1, 1.58, n=n, g0_base=g0, gamma=finite)
    assert res.iterations == 1 and res.trace[-1][1] != res.value
    assert res.value == f1d(finite, res.profile.full(), ps1)


# wide transition layers, so that descents take a dozen steps at n = 64
WIDE = ModelParams(d=1, p=3.0, tau=0.05, eps=0.2, L=1.0)


@pytest.mark.parametrize("wide, h, n, gamma", [
    (True, 0.5, 64, None), (True, 1.0, 128, "finite"),
    (False, 0.46, 512, None), (False, 1.58, 1024, None),
    (False, 1.58, 2048, "finite"), (False, 4.0, 1024, "finite")])
def test_certified_first_step_is_accepted(ps1, monkeypatch, wide, h, n,
                                          gamma):
    # the fallback trial step 1/lam, lam a bound on the Hessian of the
    # base-profile energy on the box, lowers the energy at once: with a
    # Newton direction that rises, every halving of it is rejected and
    # the projected-gradient trial of the first iteration is accepted
    params = WIDE if wide else ps1
    if gamma == "finite":
        gamma = np.random.default_rng(n).uniform(1.0, 3.0, n)
    firsts, descend = [], onedim._newton_descent

    def first_iteration(*args):
        firsts.append(descend(*args[:-1], 1))
        return firsts[-1]

    def rising(obj, G, gamma, runs, free, g):
        return g

    monkeypatch.setattr(onedim, "_newton_descent", first_iteration)
    monkeypatch.setattr(onedim, "_newton_direction", rising)
    with pytest.raises(ConvergenceError, match="stop max_iter") as exc:
        minimize_profile(params, h, n=n, gamma=gamma)
    (res,) = firsts
    step0 = exc.value.trace[0][2]
    assert (res.stop, res.evals) == ("max_iter", onedim.NEWTON_HALVINGS + 2)
    assert res.step == step0
    assert res.energy < exc.value.trace[0][1]


def test_rounding_level_descent_stops_on_its_gradient_test(ps1,
                                                          monkeypatch):
    # at these grids a descent that compared two rounding-level energies
    # ended on line_search (at a projected gradient of 1.5e-7 for n=1024);
    # the closed-form change decides the trials whose energies differ by
    # less than their rounding (at n = 512 and 17152 the last Newton step
    # changes the energy by that little), and every descent stops on its
    # gradient test
    results, descend = [], onedim._newton_descent
    changes, delta = [], onedim._ProfileObjective.delta

    def spy(*args):
        results.append(descend(*args))
        return results[-1]

    def closed_form(*args):
        changes.append(1)
        return delta(*args)

    monkeypatch.setattr(onedim, "_newton_descent", spy)
    monkeypatch.setattr(onedim._ProfileObjective, "delta", closed_form)
    for h, n in ((1.58, 1024), (0.46, 512), (1.58, 8192), (1.58, 512),
                 (2.68, 17152)):
        res = minimize_profile(ps1, h, n=n)
        assert res.stop == "grad" and res.evals == results[-1].evals
        assert results[-1].grad_norm < onedim.TOL_GRAD
        assert res.value == f1d(None, res.profile.full(), ps1)
    assert len(changes) >= 2


def test_descent_with_infinite_gamma_on_the_plateau_converges():
    # gamma = +inf on samples of the plateau g = 1, where G' = 0 and the
    # gradient pushes out of the box: they cost nothing and never move, so
    # the descent is the gamma = 1 one, bit for bit
    h, n = 1.0, 128
    gamma = np.ones(n)
    for j in (n // 4, 3 * n // 4):
        gamma[j - 2:j + 3] = np.inf
    res = minimize_profile(WIDE, h, n=n, gamma=gamma)
    ref = minimize_profile(WIDE, h, n=n)
    assert (res.stop, res.iterations) == ("grad", ref.iterations)
    assert np.array_equal(res.profile.base_g, ref.profile.base_g)
    assert res.value == ref.value == f1d(gamma, res.profile.full(), WIDE)


@pytest.mark.parametrize("steps, start, moved", [
    ((2, 7), None, None),       # the plateau edge; the gradient moves 2
    ((1, 3), (1, 4, 0.75), True),       # a run inside the transition layer
    ((125, 127), (1, 4, 0.75), True),   # the same run, by mirrored steps
    ((0, 2), (0, 3, 0.5), False),       # a run that holds the pinned end
    ((66, 68), (60, 63, 0.5), True)])   # by mirrored steps, next to h
def test_descent_with_infinite_gamma_moves_tied_samples_together(
        steps, start, moved):
    # gamma = +inf on a step costs +inf unless its two samples are equal,
    # so the descent moves each run of samples joined by such steps as one
    # (or not at all, when it holds a pinned end) and stops on its
    # gradient test within a few dozen iterations
    h, n = 1.0, 128
    gamma = np.ones(n)
    gamma[slice(*steps)] = np.inf
    g0 = onedim._initial_base(h, n // 2, WIDE.alpha)
    if start is not None:
        lo, hi, value = start
        g0[lo:hi] = value
    res = minimize_profile(WIDE, h, n=n, g0_base=g0, gamma=gamma)
    assert res.stop == "grad" and res.iterations < 50
    G = res.profile.full().g
    assert np.all(G[slice(*steps)] == np.roll(G, -1)[slice(*steps)])
    assert res.value == f1d(gamma, res.profile.full(), WIDE) < np.inf
    if start is not None:
        assert np.all((res.profile.base_g[lo:hi] != value) == moved)


@pytest.mark.parametrize("tau, n, steps, first", [
    (0.05, 128, [1], 1),        # inside the start's transition layer
    (0.05, 128, [0, 1], 0),     # next to the pinned end
    (0.05, 128, [127], 127),    # a second-half step, back to sample 0
    (1.0, 64, [1], 1)],         # C_tau = 1, where A gamma |G'|^2 is 0 inf
    ids=["layer", "pinned_end", "mirrored", "c_tau_1"])
def test_minimize_profile_rejects_a_start_infeasible_for_gamma(
        monkeypatch, tau, n, steps, first):
    # gamma = +inf on a step with G' != 0 gives the start the energy +inf,
    # which no descent can leave (tied samples move together): rejected
    # before any descent, naming the first such step, without a warning
    params = WIDE.with_(tau=tau)
    assert (c_tau(params) == 1.0) == (tau == 1.0)
    gamma = np.ones(n)
    gamma[steps] = np.inf

    def no_descent(*args, **kwargs):
        raise AssertionError("descended from an infeasible start")

    monkeypatch.setattr(onedim, "_newton_descent", no_descent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"first at step {first} "):
            minimize_profile(params, 1.0, n=n, gamma=gamma)
    assert f1d(gamma, onedim.ReflectedProfile(
        1.0, onedim._initial_base(1.0, n // 2, params.alpha)).full(),
        params) == np.inf


def test_minimize_profile_rejects_tiny_grids(ps1):
    with pytest.raises(ValueError):
        minimize_profile(ps1, 1.0, n=16)


def _bad_start(case: str) -> np.ndarray:
    gb = onedim._initial_base(1.0, 256, 0.01)    # a valid n = 512 start
    if case == "length":
        return gb[:-1]
    if case == "nan":
        gb[100] = np.nan
    elif case == "end":
        gb[-1] = 0.3
    else:
        gb[100] = 1.2
    return gb


BAD_START_ERRORS = {
    "length": r"n/2 \+ 1 = 257 samples, got shape \(256,\)",
    "nan": "finite",
    "end": r"g\(0\) = g\(h\) = 1/2, got 0.5 and 0.3",
    "range": r"values in \[1/2, 1\]"}


@pytest.mark.parametrize("case", list(BAD_START_ERRORS))
def test_minimize_profile_rejects_a_bad_start(ps1, case):
    with pytest.raises(ValueError, match=BAD_START_ERRORS[case]):
        minimize_profile(ps1, 1.0, n=512, g0_base=_bad_start(case))


def test_reflected_profile_rejects_nan():
    g = np.full(9, 0.75)
    g[0] = g[-1] = 0.5
    g[4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        onedim.ReflectedProfile(1.0, g)


@pytest.mark.parametrize("n, value", [
    (2144, 0.358318), (4288, 0.412147), (8576, 0.425159)])
def test_resolved_ladder_descents_stop_within_twenty_iterations(ps1, n,
                                                                value):
    # PS1 at h = 2.68 with dx / alpha = 1, 1/2, 1/4: the transition layer
    # grows to ~40 free samples, and the Newton descent's iteration count
    # stays small where a projected-gradient descent needed 26/56/127
    res = minimize_profile(ps1, 2.68, n=n)
    assert res.stop == "grad" and res.iterations <= 20
    assert res.value == pytest.approx(value, abs=1e-6)


@pytest.mark.parametrize("n", [2048, 8192])
def test_interior_start_converges_on_the_conjugate_gradient_path(
        ps1, monkeypatch, n):
    # from g = 0.75 every interior sample is free, more than DENSE_MAX, so
    # the first Newton system is solved by conjugate gradients
    free_sizes, direction = [], onedim._newton_direction

    def spy(obj, G, gamma, runs, free, g):
        free_sizes.append(int(free.sum()))
        return direction(obj, G, gamma, runs, free, g)

    monkeypatch.setattr(onedim, "_newton_direction", spy)
    g0 = np.full(n // 2 + 1, 0.75)
    g0[0] = g0[-1] = 0.5
    res = minimize_profile(ps1, 1.58, n=n, g0_base=g0)
    assert free_sizes[0] == n // 2 - 1 > onedim.DENSE_MAX
    assert res.stop == "grad"
    assert res.value == f1d(None, res.profile.full(), ps1)
    if n == 2048:
        assert res.value == pytest.approx(0.898367152, rel=1e-9)


def _reduced_case(tie: bool):
    """(objective, base profile, gamma, runs, free) at the n = 1024
    minimizer of WIDE, h = 1, whose transition layers hold 40 free
    samples, where the reduced Hessian is positive definite; with
    ``tie`` gamma is +inf on two steps inside the first layer, merging
    three of its samples into one variable."""
    h, n, m = 1.0, 1024, 512
    gb = minimize_profile(WIDE, h, n=n).profile.base_g.copy()
    gamma = None
    free_samples = np.flatnonzero((gb > 0.5) & (gb < 1.0))
    if tie:
        j = free_samples[2]
        gb[j:j + 3] = gb[j + 1]
        gamma = np.ones(n)
        gamma[j:j + 2] = np.inf
    runs = onedim._Runs(gamma, m)
    free = np.zeros(runs.size.size, dtype=bool)
    free[runs.label[free_samples]] = True
    return onedim._ProfileObjective.of(WIDE, 2.0 * h, n), gb, gamma, runs, free


@pytest.mark.parametrize("tie", [False, True])
def test_newton_direction_solves_the_reduced_hessian(monkeypatch, tie):
    # H d = -g for the Hessian H in the free run values, checked against
    # central differences of the folded gradient (to their 1e-6 or so);
    # conjugate gradients (all free samples forced past DENSE_MAX) end
    # once |H d + g| < |g|^(3/2)
    obj, gb, gamma, runs, free = _reduced_case(tie)
    m = obj.n // 2
    f = np.flatnonzero(free)
    assert f.size >= 38 and tie == (runs.size[f] == 3).any()
    g = 1e-9 * np.random.default_rng(7).uniform(-1.0, 1.0, f.size)
    G = onedim._reflect(gb)[:-1]
    d = onedim._newton_direction(obj, G, gamma, runs, free, g)

    def run_grad(v, eps):
        vr = np.zeros(runs.size.size)
        vr[f] = eps * v
        Gv = onedim._reflect(gb + vr[runs.label])[:-1]
        return runs.total(onedim._fold_grad(obj.grad(Gv, gamma), m))[f]

    def hess(v):
        eps = 1e-5 / np.abs(v).max()
        return (run_grad(v, eps) - run_grad(v, -eps)) / (2.0 * eps)

    assert np.abs(hess(d) + g).max() <= 1e-6 * np.abs(g).max()
    monkeypatch.setattr(onedim, "DENSE_MAX", 0)
    d_cg = onedim._newton_direction(obj, G, gamma, runs, free, g)
    size = np.linalg.norm(g)
    assert np.linalg.norm(hess(d_cg) + g) <= (size ** 0.5 + 1e-6) * size


def test_every_accepted_newton_trial_meets_the_armijo_bound(monkeypatch):
    # the iterates are the profiles whose gradient the descent takes; from
    # each to the next the energy change (the difference of the energies,
    # or the closed form inside their rounding) is at most
    # ARMIJO <g, step> < 0, so the descent is monotone
    iterates, grad = [], onedim._ProfileObjective.grad

    def spy(self, G, gamma=None):
        iterates.append(G)
        return grad(self, G, gamma)

    monkeypatch.setattr(onedim._ProfileObjective, "grad", spy)
    h, n = 1.0, 128
    g0 = np.full(n // 2 + 1, 0.75)
    g0[0] = g0[-1] = 0.5
    res = minimize_profile(WIDE, h, n=n, g0_base=g0)
    monkeypatch.undo()
    assert res.stop == "grad" and len(iterates) == res.iterations > 5
    obj = onedim._ProfileObjective.of(WIDE, 2.0 * h, n)
    m = n // 2
    for G, Gc in zip(iterates, iterates[1:]):
        local, nonlocal_ = obj.split(Gc)
        change = (local - nonlocal_) - obj.energy(G)
        if abs(change) <= onedim.ENERGY_ROUNDING * (abs(local)
                                                    + abs(nonlocal_)):
            change = obj.delta(G, Gc)
        predicted = float(onedim._fold_grad(obj.grad(G), m)
                          @ (Gc[:m + 1] - G[:m + 1]))
        assert predicted < 0 and change <= onedim.ARMIJO * predicted
