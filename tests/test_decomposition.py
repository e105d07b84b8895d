import numpy as np
import pytest

from helpers import rough_field, smooth_field, smooth_profile
from stripes import kernel
from stripes.decomposition import (cross_term, cross_term_tail_bound,
                                   directional_g, directional_mm,
                                   flat_penalty, lower_bound_report,
                                   positivity_identity_check, slice_tables,
                                   write_slice_csv)
from stripes.energy import total_energy
from stripes.field import (PeriodicField, Profile1D, StripeSpec,
                           make_one_dimensional, make_stripes)
from stripes.model import ModelParams, double_well, transition_energy


def test_positivity_identity_random_fields(ps2):
    rng = np.random.default_rng(10)
    for trial in range(5):
        u = rough_field(2, 12, 2.0, rng)
        lhs, rhs, gap = positivity_identity_check(u, 1, [2], params=ps2)
        assert abs(gap) / (abs(lhs) + 1e-30) < 1e-10


def test_positivity_identity_axis_validation(ps2):
    u = rough_field(2, 8, 2.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        positivity_identity_check(u, 1, [1], params=ps2)


def test_cross_term_nonnegative_and_zero_on_1d(ps2):
    rng = np.random.default_rng(11)
    u = rough_field(2, 10, 2.0, rng)
    for i in (1, 2):
        assert cross_term(u, i, ps2) >= 0.0
    g = Profile1D(10, 2.0, smooth_profile(10, 2.0, rng))
    u1 = make_one_dimensional(g, 1, 2, 10)
    assert cross_term(u1, 1, ps2) == pytest.approx(0.0, abs=1e-12)
    assert cross_term(u1, 2, ps2) == pytest.approx(0.0, abs=1e-12)


def test_cross_term_truncated_approaches_periodized(ps2):
    rng = np.random.default_rng(12)
    u = smooth_field(2, 10, 2.0, rng)
    full = cross_term(u, 1, ps2)
    # wide truncation covers the dominant lags; the tail bound covers the rest
    trunc = cross_term(u, 1, ps2, trunc_radius=6.0)
    assert abs(full - trunc) <= cross_term_tail_bound(6.0, u, ps2) + 1e-6


def test_directional_g_nonnegative_zero_on_constant_slices(ps2):
    rng = np.random.default_rng(13)
    u = smooth_field(2, 16, 2.0, rng)
    for i in (1, 2):
        for idx in range(0, 16, 5):
            assert directional_g(u, i, (idx,), ps2) > -1e-10
    uc = PeriodicField(2, 8, 2.0, np.full((8, 8), 0.4))
    assert directional_g(uc, 1, (0,), ps2) == pytest.approx(0.0, abs=1e-12)


def test_lower_bound_slack_random_fields(ps2):
    rng = np.random.default_rng(14)
    for trial in range(5):
        u = rough_field(2, 16, 2.0, rng)
        rep = lower_bound_report(u, ps2)
        assert rep.slack >= -1e-8
        assert rep.lower_bound == pytest.approx(
            (sum(rep.gbar) - sum(rep.mbar) + rep.wcal + sum(rep.cross))
            / u.L ** 2, rel=1e-12)
        assert rep.full_energy == pytest.approx(
            total_energy(u, ps2).total, rel=1e-9)


def test_lower_bound_equality_on_one_dimensional_fields(ps2):
    rng = np.random.default_rng(15)
    for i in (1, 2):
        g = Profile1D(16, 2.0, smooth_profile(16, 2.0, rng))
        u = make_one_dimensional(g, i, 2, 16)
        rep = lower_bound_report(u, ps2)
        assert abs(rep.slack) < 1e-6 * (abs(rep.full_energy) + 1.0)


def test_slice_lag_inequality(ps2):
    # |z| * Mbar_i(0, L) >= integral |omega(g(x+z)) - omega(g(x))| dx
    # along every slice, for resolved profiles
    rng = np.random.default_rng(16)
    ps = ModelParams(d=1, p=3.0, tau=0.05, eps=1.0, L=2.0)
    n, L = 256, 2.0
    dx = L / n
    for trial in range(10):
        u = PeriodicField(1, n, L, smooth_profile(n, L, rng))
        mbar = directional_mm(u, 1, (), ps)
        om = transition_energy(u.values)
        for lag in rng.integers(1, n, 8):
            lhs = lag * dx * mbar
            rhs = float(np.sum(np.abs(np.roll(om, -int(lag)) - om)) * dx)
            assert lhs >= rhs - 1e-10


def test_slow_transition_coercivity(ps1):
    # profiles oscillating by at most 1 - delta at short range keep a
    # definite fraction of the interfacial density in the slice term
    delta, delta0 = 0.2, 0.1
    n, L = 512, 4.0
    x = np.arange(n) * L / n
    g = 0.5 + (0.5 - delta / 2) * np.sin(2 * np.pi * x / L)
    u = PeriodicField(1, n, L, g)
    mbar = directional_mm(u, 1, (), ps1)
    gbar = directional_g(u, 1, (), ps1)
    short_mass = (kernel.marginal_tail_mass(0.0, ps1)
                  - kernel.marginal_tail_mass(delta0, ps1))
    # |zeta| Khat weight within |zeta| <= delta0
    from scipy.integrate import quad
    weight, _ = quad(lambda t: 2 * t * kernel.marginal_kernel(t, ps1),
                     0, delta0)
    bound = weight * (2 * delta / (1 + 2 * delta)) * mbar
    assert gbar >= bound - 1e-9
    assert short_mass > 0


def test_flat_penalty_constant_field(ps2):
    u = PeriodicField(2, 8, 2.0, np.full((8, 8), 0.25))
    expected = (3.0 / ps2.alpha) * double_well(0.25) * 2.0 ** 2
    assert flat_penalty(u, ps2) == pytest.approx(expected, rel=1e-12)


def test_slice_tables_shape_and_csv(tmp_path, ps2):
    u = make_stripes(StripeSpec(1, 0.5, 0.0), L=2.0, n=8, d=2)
    rows = slice_tables(u, ps2)
    assert len(rows) == 2 * 8
    path = tmp_path / "slices.csv"
    write_slice_csv(path, rows)
    assert len(path.read_text().strip().splitlines()) == 17
    # slices along the stripe normal carry all the interfacial density
    normal_rows = [r for r in rows if r[0] == 1]
    assert all(r[2] > 0 for r in normal_rows)
    parallel_rows = [r for r in rows if r[0] == 2]
    assert all(r[2] == 0 for r in parallel_rows)


def test_lower_bound_report_rejects_single_cell_grid(ps2):
    # forward differences need a neighbour distinct from the cell itself
    u = PeriodicField(2, 1, 2.0, np.full((1, 1), 0.4))
    with pytest.raises(ValueError, match="n must be >= 2"):
        lower_bound_report(u, ps2)
