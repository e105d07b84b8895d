import numpy as np
import pytest
from scipy.integrate import quad

from helpers import nonlocal_direct, rough_field, smooth_field
from stripes import kernel
from stripes.energy import (golden_section, modica_mortola, nonlocal_energy,
                            optimal_sharp_period, rescaling_identity_check,
                            sharp_stripe_energy, total_energy,
                            unscaled_energy)
from stripes.field import PeriodicField, StripeSpec, make_stripes
from stripes.model import ModelParams, double_well


def test_constant_fields_have_zero_energy(ps2):
    for c in (0.0, 1.0):
        u = PeriodicField(2, 8, 2.0, np.full((8, 8), c))
        b = total_energy(u, ps2)
        assert b.mm_term == 0.0
        assert b.nonlocal_term == 0.0
        assert b.total == 0.0


def test_constant_field_well_energy(ps2):
    # off-well constant: only the double-well part survives
    c = 0.3
    u = PeriodicField(2, 8, 2.0, np.full((8, 8), c))
    b = total_energy(u, ps2)
    expected = (kernel.c_tau(ps2) - 1.0) * 3.0 / ps2.alpha * double_well(c)
    assert b.total == pytest.approx(expected, rel=1e-12)
    assert b.nonlocal_term == pytest.approx(0.0, abs=1e-12)


def test_nonlocal_fft_matches_direct(ps2, ps1):
    rng = np.random.default_rng(3)
    for u, params in ((rough_field(2, 12, 2.0, rng), ps2),
                      (rough_field(1, 64, 2.0, rng), ps1)):
        kgrid = kernel.periodized_kernel_grid(u.L, u.n, params)
        assert nonlocal_energy(u, params) == pytest.approx(
            nonlocal_direct(u.values, kgrid, u.h_grid), rel=1e-12)


def test_nonlocal_translation_invariance(ps2):
    rng = np.random.default_rng(4)
    u = rough_field(2, 16, 2.0, rng)
    v = u.with_values(np.roll(u.values, (3, 5), axis=(0, 1)))
    assert total_energy(u, ps2).total == pytest.approx(
        total_energy(v, ps2).total, rel=1e-12)


def test_modica_mortola_single_jump(ps1):
    # one up and one down jump of height 1: ||grad||_1^2 integrates to
    # 2 / dx, wells vanish
    n, L = 32, 2.0
    vals = np.zeros(n)
    vals[: n // 2] = 1.0
    u = PeriodicField(1, n, L, vals)
    dx = L / n
    assert modica_mortola(u, ps1.alpha) == pytest.approx(
        3.0 * ps1.alpha * 2.0 / dx, rel=1e-12)


def test_rescaling_identity(ps1, ps2):
    rng = np.random.default_rng(5)
    for ps, d, n in ((ps1, 1, 64), (ps2, 2, 16)):
        u = smooth_field(d, n, ps.L, rng)
        lhs, rhs, gap = rescaling_identity_check(u, ps)
        assert abs(gap) < 1e-9 * (abs(lhs) + 1.0)


def test_unscaled_energy_zero_on_well_constants(ps1):
    u = PeriodicField(1, 16, 2.0, np.ones(16))
    assert unscaled_energy(u, 1.0, 0.05, p=3.0) == 0.0


def test_sharp_stripe_energy_against_quadrature(ps1):
    # independent oracle: triangle-wave correlation integrated by adaptive
    # quadrature over a long truncation plus closed-form constant tail
    for h in (0.5, 1.58, 4.0):
        c = kernel.c_tau(ps1)

        def tri(z):
            r = np.mod(z, 2.0 * h)
            return np.where(r <= h, r / h, 2.0 - r / h)

        Z = 400.0 * h
        corr, _ = quad(lambda z: tri(z) * kernel.marginal_kernel(z, ps1),
                       0, Z, limit=4000)
        tail, _ = quad(lambda z: 0.5 * kernel.marginal_kernel(z, ps1),
                       Z, np.inf)
        expected = (c - 1.0) / h - 2.0 * (corr + tail)
        assert sharp_stripe_energy(h, ps1) == pytest.approx(expected,
                                                            rel=1e-7)


def test_sharp_optimal_period_is_interior(ps1):
    h_star, value = optimal_sharp_period(ps1)
    assert value < 0.0
    assert 0.1 < h_star < 10.0
    for h in (h_star * 0.8, h_star * 1.25):
        assert sharp_stripe_energy(h, ps1) >= value


def test_golden_section_quadratic():
    x, v = golden_section(lambda t: (t - 1.3) ** 2, 0.0, 4.0, rel_tol=1e-6)
    assert x == pytest.approx(1.3, abs=1e-4)
    assert v == pytest.approx(0.0, abs=1e-8)


def test_binary_stripes_approach_sharp_energy(ps1):
    # rasterized stripes at refining resolution converge to the
    # sharp-interface closed form of the nonlocal part
    h = 0.5
    vals = []
    for n in (128, 256, 512):
        u = make_stripes(StripeSpec(1, h, 0.0), L=2.0, n=n, d=1)
        nl = nonlocal_energy(u, ps1) / 2.0
        vals.append(nl)
    target = (kernel.c_tau(ps1) - 1.0) / h - sharp_stripe_energy(h, ps1)
    errs = [abs(v - target) for v in vals]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.02 * abs(target)
