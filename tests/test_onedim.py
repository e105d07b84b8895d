import numpy as np
import pytest

from helpers import smooth_profile
from stripes import onedim
from stripes.energy import total_energy
from stripes.field import Profile1D, make_one_dimensional
from stripes.kernel import c_tau
from stripes.model import ModelParams
from stripes.onedim import (ConvergenceError, CrossingError,
                            chessboard_check, confined_split, el_residual,
                            f1d, free_boundary_points, gamma_limit_study,
                            gamma_pointwise_optimum, i_g_profile,
                            minimize_aux_penalized, minimize_profile,
                            obstacle_set, optimal_period,
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
             lambda: confined_split(gam, g, ps1),
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


def test_confined_split_sums_to_f1d(ps1):
    rng = np.random.default_rng(22)
    g = Profile1D(128, 2.0, smooth_profile(128, 2.0, rng))
    t1, t2 = confined_split(None, g, ps1)
    assert t1 + t2 == pytest.approx(f1d(None, g, ps1), rel=1e-12)


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
            prof, i0 * L / n, ps1, N=2)
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
                                     x_grid=x, tol=1e-12)
    assert abs(gap) < 1e-8 * max(abs(lhs), 1.0)


def test_chessboard_single_arc_identity(ps1):
    M = 80
    x = np.linspace(0.0, 1.0, M + 1)
    g = 0.5 + 0.45 * np.sin(np.pi * x)
    lhs, rhs, gap = chessboard_check(None, g, [0.0, 1.0], ps1,
                                     x_grid=x, tol=1e-12)
    assert abs(gap) < 1e-8 * max(abs(lhs), 1.0)


def test_chessboard_uneven_arcs_nonnegative_gap(ps1):
    arcs = [0.0, 1.0, 2.5]
    M = 250
    x = np.linspace(0.0, 2.5, M + 1)
    g = np.where(x <= 1.0, 0.5 + 0.4 * np.sin(np.pi * x),
                 0.5 - 0.4 * np.sin(np.pi * (x - 1.0) / 1.5))
    lhs, rhs, gap = chessboard_check(None, g, arcs, ps1, x_grid=x,
                                     tol=1e-12)
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
    assert res.stop in ("grad", "stall", "line_search")


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
    ig = i_g_profile(res.profile.full(), ps1)
    mirrored = -np.roll(ig[::-1], 1)
    assert np.allclose(ig, mirrored, atol=1e-9 * np.max(np.abs(ig)))


def test_optimal_period_reference_point(ps1):
    # frozen regression values for the benchmark configuration at n=512
    res = optimal_period(ps1, (0.3, 40.0), n=512)
    assert res.h_star == pytest.approx(1.5806052254537448, rel=1e-4)
    assert res.c_star == pytest.approx(0.7734205422494789, rel=1e-6)
    assert len(res.trace) >= 12


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
        star = gamma_pointwise_optimum(a, b, m, w)
        # objective a g + b / g + w (g - m)_+^2 over g >= 1
        grid = np.linspace(1.0, 10.0 * m + 20.0, 200001)
        vals = (a * grid + b / grid
                + w * np.maximum(grid - m, 0.0) ** 2)
        f_star = a * star + b / star + w * max(star - m, 0.0) ** 2
        assert f_star <= vals.min() + 1e-8


def test_penalized_family_raises_when_outer_loop_runs_out(ps1):
    # the first round always counts as a decrease (from +inf), so one
    # round can never pass the stopping test
    with pytest.raises(ConvergenceError, match="1 outer iterations"):
        minimize_aux_penalized(10, ps1, 1.58, n=64, outer_iter=1)
    _, _, value = minimize_aux_penalized(10, ps1, 1.58, n=64)
    assert np.isfinite(value)


def test_gamma_limit_study_collapses(ps1):
    rep = gamma_limit_study(ps1, 1.58, m_schedule=(1, 10, 100), n=8192)
    assert rep["measure_gamma_above"][-1] <= rep["grid_cell"]
    assert rep["strict_margin"] > 0.0
    assert rep["sup_gamma_minus_1"][-1] <= 0.01
    # once the coefficients have collapsed, the penalized value matches the
    # unit-coefficient minimum
    base = minimize_profile(ps1, 1.58, n=8192).value
    assert rep["value"][-1] == pytest.approx(base, abs=1e-6)


def test_minimize_profile_rejects_tiny_grids(ps1):
    with pytest.raises(ValueError):
        minimize_profile(ps1, 1.0, n=16)
