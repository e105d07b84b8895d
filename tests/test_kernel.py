import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (cross_multiplier_reference, half_weights_reference,
                     line_weights_reference, marginal_tail_mass)
from stripes import kernel
from stripes.model import ModelParams


def params(d, p, tau):
    return ModelParams(d=d, p=p, tau=tau, eps=0.05, L=1.0)


def test_marginal_constant_closed_forms():
    # c_{d,p} = 2^(d-1) Gamma(p-d+1)/Gamma(p)
    assert kernel.marginal_constant(1, 3.0) == pytest.approx(1.0)
    assert kernel.marginal_constant(2, 4.0) == pytest.approx(2.0 / 3.0)
    assert kernel.marginal_constant(3, 5.0) == pytest.approx(1.0 / 3.0)


def test_reference_moments(ps1, ps2):
    assert kernel.c_tau(ps1) == pytest.approx(20.0)
    assert kernel.j_c(ps1) == pytest.approx(1.0)
    assert kernel.c_tau(ps2) == pytest.approx(40.0 / 3.0)
    assert kernel.j_c(ps2) == pytest.approx(2.0 / 3.0)
    assert kernel.mass(ps1) == pytest.approx(400.0)


def test_moments_match_quadrature_grid():
    for d in (1, 2, 3):
        for p in (d + 2.0, d + 3.0):
            for tau in (1.0, 0.1, 0.01):
                ps = params(d, p, tau)
                mom = kernel.moments(ps)
                mass_quad, _ = quad(
                    lambda t: kernel.marginal_kernel(t, ps), 0, np.inf)
                first_quad, _ = quad(
                    lambda t: 2 * t * kernel.marginal_kernel(t, ps),
                    0, np.inf)
                assert 2 * mass_quad == pytest.approx(mom.mass, rel=1e-8)
                assert first_quad == pytest.approx(mom.c_tau, rel=1e-8)
                assert mass_quad == pytest.approx(mom.half_mass_marginal,
                                                  rel=1e-8)
                assert kernel.j_c(ps) == pytest.approx(mom.c_tau * ps.tau,
                                                       rel=1e-12)


def test_marginal_matches_direct_integration_d2():
    # integrating one coordinate out of the full kernel reproduces the
    # closed-form marginal
    ps = params(2, 4.0, 0.1)
    for t in (0.0, 0.3, 2.0):
        direct, _ = quad(
            lambda s: kernel.kernel_value(np.array([t, s]), ps),
            -np.inf, np.inf)
        assert direct == pytest.approx(kernel.marginal_kernel(t, ps),
                                       rel=1e-9)


def test_tail_moments_match_quadrature(ps1):
    # the closed-form tail mass that other tests take as a reference
    for R in (0.0, 0.5, 3.0):
        mass_quad, _ = quad(
            lambda t: 2 * kernel.marginal_kernel(t, ps1), R, np.inf)
        assert marginal_tail_mass(R, ps1) == pytest.approx(mass_quad,
                                                           rel=1e-10)


def test_periodized_marginal_against_brute_force(ps1):
    L, n = 2.0, 32
    khat = kernel.periodized_marginal(L, n, ps1)
    x = np.arange(n) * L / n
    brute = np.zeros(n)
    for m in range(-4000, 4001):
        brute += kernel.marginal_kernel(x + m * L, ps1)
    # remaining tail of the brute-force sum, bounded by the closed form
    tail = marginal_tail_mass(3999 * L, ps1) / L * n
    assert np.max(np.abs(khat - brute)) < 1e-8 * np.max(brute) + tail


def test_periodized_kernel_grid_against_brute_force(ps2):
    L, n = 2.0, 8
    kgrid = kernel.periodized_kernel_grid(L, n, ps2)
    a = ps2.kernel_scale
    x = np.arange(n) * L / n
    brute = np.zeros((n, n))
    rng_m = range(-60, 61)
    for m1 in rng_m:
        for m2 in rng_m:
            z1 = np.abs(x[:, None] + m1 * L)
            z2 = np.abs(x[None, :] + m2 * L)
            brute += (z1 + z2 + a) ** (-ps2.p)
    assert np.max(np.abs(kgrid - brute)) / np.max(brute) < 1e-4


def test_periodized_marginal_dominates_nearest_image(ps1):
    # the wrapped sum exceeds the nearest-image value by at most the mass
    # of the remaining images, all at distance >= L/2
    L, n = 8.0, 128
    khat = kernel.periodized_marginal(L, n, ps1)
    x = np.arange(n) * L / n
    xw = np.minimum(x, L - x)
    nearest = kernel.marginal_kernel(xw, ps1)
    assert np.all(khat >= nearest - 1e-12)
    image_bound = marginal_tail_mass(L / 2 - L / n, ps1) / (L / 2)
    assert np.max(khat - nearest) <= 4.0 * image_bound


OPERATOR_GRIDS = [(1, 2), (1, 7), (1, 16), (2, 2), (2, 3), (2, 7), (2, 8),
                  (3, 3), (3, 5), (3, 6), (4, 3)]


@pytest.mark.parametrize("d, n", OPERATOR_GRIDS)
def test_operator_constants_are_read_only_and_the_per_call_expressions(d, n):
    # the Parseval weights and cross multipliers an operator keeps are the
    # ones pair_sum(v, axis=) and cross_term built on every call, bit for
    # bit, and a caller cannot write them
    op = kernel.kernel_operator(1.0, n, params(d, d + 2.0, 0.05))
    assert np.array_equal(op.half_weights, half_weights_reference(n))
    assert len(op._line_weights) == d
    for ax in range(d):
        assert np.array_equal(op._line_weights[ax],
                              line_weights_reference(op, ax))
    assert len(op.cross_multipliers) == (d if d > 1 else 0)
    for ax, m in enumerate(op.cross_multipliers):
        assert np.array_equal(m, cross_multiplier_reference(op, ax))
    for a in (op.half_weights, *op._line_weights, *op.cross_multipliers):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


def test_marginal_operator_keeps_the_line_weights_only(ps1):
    op = kernel.marginal_operator(2.0, 33, ps1)
    assert op.cross_multipliers == ()
    assert np.array_equal(op._line_weights[0], line_weights_reference(op, 0))
    assert not op._line_weights[0].flags.writeable


@pytest.mark.parametrize("d, n", OPERATOR_GRIDS)
def test_rfft_from_last_axis_is_rfft(d, n):
    # numpy 2's rfftn takes the same stages in the same order, so the two
    # agree bit for bit
    op = kernel.kernel_operator(1.0, n, params(d, d + 2.0, 0.05))
    v = np.random.default_rng(n).uniform(0.0, 1.0, (n,) * d)
    assert np.array_equal(kernel.rfft_from_last_axis(np.fft.rfft(v)),
                          op.rfft(v))
