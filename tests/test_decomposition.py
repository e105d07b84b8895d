import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (count_ffts, marginal_tail_mass, rough_field,
                     slice_terms_direct, smooth_field, smooth_profile)
from stripes import kernel
from stripes.decomposition import (_slice_terms, cross_term, directional_mm,
                                   lower_bound_report,
                                   positivity_identity_check)
from stripes.energy import total_energy
from stripes.field import (PeriodicField, Profile1D, StripeSpec, line_index,
                           make_one_dimensional, make_stripes)
from stripes.model import ModelParams, double_well, transition_energy


def directional_g(u, i, x_perp, params):
    """Gbar^i of the line through ``x_perp``, read from the slice pass."""
    ax, perp = line_index(u, i, x_perp)
    return float(_slice_terms(u, params).gbar[ax][perp])


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


def test_lower_bound_report_transforms_the_field_once(ps2, monkeypatch):
    # the slice lines take one rFFT along each axis, and the one along the
    # last axis is also the first stage of the full rFFT, which one FFT
    # along the other axis completes; the cross terms and the full energy
    # share it; every term is the one that computing it alone gives, bit
    # for bit
    params = ps2.with_(L=1.0)
    u = PeriodicField(2, 48, 1.0,
                      np.random.default_rng(48).uniform(0.0, 1.0, (48, 48)))
    kernel.kernel_operator(u.L, u.n, params)    # build the table first
    calls = count_ffts(monkeypatch)
    rep = lower_bound_report(u, params)
    assert calls == {"rfft": 2, "fft": 1}
    monkeypatch.undo()
    assert rep.cross == (cross_term(u, 1, params), cross_term(u, 2, params))
    assert rep.full_energy == total_energy(u, params).total


@settings(max_examples=30, deadline=None)
@given(dn=st.sampled_from([(2, 2), (2, 3), (2, 7), (2, 8), (2, 16), (3, 2),
                           (3, 3), (3, 6), (3, 7)]),
       seed=st.integers(0, 2 ** 32 - 1), smooth=st.booleans())
def test_report_terms_are_the_terms_computed_alone(dn, seed, smooth):
    # the report shares its intermediates between the slice pass, the
    # cross terms and the full energy; each term it reports is the one that
    # computing it alone gives, bit for bit, at even and odd n
    d, n = dn
    ps = SLICE_PARAMS[d]
    rng = np.random.default_rng(seed)
    u = smooth_field(d, n, ps.L, rng) if smooth and n >= 7 \
        else rough_field(d, n, ps.L, rng)
    rep = lower_bound_report(u, ps)
    assert rep.cross == tuple(cross_term(u, i, ps) for i in range(1, d + 1))
    assert rep.full_energy == total_energy(u, ps).total
    op = kernel.kernel_operator(u.L, n, ps)
    terms = _slice_terms(u, ps)
    for ax in range(d):
        alone = (terms.mbar[ax] * kernel.c_tau(ps)
                 - op.pair_sum(u.values, axis=ax) * u.h_grid ** (d + 1))
        assert np.array_equal(terms.gbar[ax], alone)
        assert rep.gbar[ax] == float(np.sum(alone)) * u.h_grid ** (d - 1)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2 ** 32 - 1),
       smooth=st.booleans())
def test_cross_terms_are_the_slice_overshoot_in_2d(n, seed, smooth):
    # in d = 2 the slice nonlocal terms overshoot the full nonlocal term by
    # exactly the sum of the cross terms, so the slack is Wcal (C_tau - 2)
    ps = SLICE_PARAMS[2]
    rng = np.random.default_rng(seed)
    u = smooth_field(2, n, ps.L, rng) if smooth and n >= 7 \
        else rough_field(2, n, ps.L, rng)
    op = kernel.kernel_operator(u.L, n, ps)
    vol2 = u.h_grid ** 4
    slices = sum(float(np.sum(op.pair_sum(u.values, axis=ax))) * vol2
                 for ax in range(2))
    full = op.pair_sum(u.values) * vol2
    rep = lower_bound_report(u, ps)
    assert sum(rep.cross) == pytest.approx(slices - full, abs=1e-13 * slices)
    assert rep.slack == pytest.approx(
        rep.wcal * (kernel.c_tau(ps) - 2.0) / u.L ** 2,
        abs=1e-12 * rep.full_energy)


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
    short_mass = (marginal_tail_mass(0.0, ps1)
                  - marginal_tail_mass(delta0, ps1))
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
    assert lower_bound_report(u, ps2).wcal == pytest.approx(expected,
                                                            rel=1e-12)


def test_slice_terms_put_the_interfacial_density_on_normal_lines(ps2):
    u = make_stripes(StripeSpec(1, 0.5, 0.0), L=2.0, n=8, d=2)
    terms = _slice_terms(u, ps2)
    assert [m.shape for m in terms.mbar] == [(8,), (8,)]
    assert [g.shape for g in terms.gbar] == [(8,), (8,)]
    # slices along the stripe normal carry all the interfacial density
    assert np.all(terms.mbar[0] > 0)
    assert np.all(terms.mbar[1] == 0)


def test_lower_bound_report_rejects_single_cell_grid(ps2):
    # forward differences need a neighbour distinct from the cell itself
    u = PeriodicField(2, 1, 2.0, np.full((1, 1), 0.4))
    with pytest.raises(ValueError, match="n must be >= 2"):
        lower_bound_report(u, ps2)


@pytest.mark.parametrize("term", [directional_mm, directional_g])
@pytest.mark.parametrize("i, x_perp", [
    (0, (3,)), (3, (3,)), (-1, (3,)),          # axis outside 1..d
    (1, (-1,)), (2, (8,)),                      # index outside [0, n)
    (1, ()), (2, (1, 2)),                       # wrong count
])
def test_directional_terms_reject_a_bad_line(ps2, term, i, x_perp):
    u = rough_field(2, 8, 2.0, np.random.default_rng(0))
    with pytest.raises(IndexError):
        term(u, i, x_perp, ps2)


SLICE_PARAMS = {1: ModelParams(d=1, p=3.0, tau=0.05, eps=0.05, L=1.0),
                2: ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0),
                3: ModelParams(d=3, p=5.0, tau=0.05, eps=0.05, L=1.0)}
SLICE_MAX_N = {1: 40, 2: 13, 3: 7}


@st.composite
def slice_fields(draw):
    """An iid, near-flat, lifted or stripe field in d = 1, 2 or 3 on an odd
    or even grid.  Near-flat fields put gradients on both sides of the
    active-set threshold."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(2, SLICE_MAX_N[d]))
    L = SLICE_PARAMS[d].L
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    axis = draw(st.integers(1, d))
    kind = draw(st.sampled_from(["iid", "near-flat", "lifted", "stripe"]))
    if kind == "iid":
        return PeriodicField(d, n, L, rng.uniform(0.0, 1.0, (n,) * d))
    if kind == "near-flat":
        scale = 10.0 ** -draw(st.integers(1, 15))
        return PeriodicField(d, n, L, 0.5 + scale * rng.uniform(
            -1.0, 1.0, (n,) * d))
    if kind == "lifted":
        g = Profile1D(n, L, rng.uniform(0.0, 1.0, n))
        return make_one_dimensional(g, axis, d, n)
    # j stripe periods of n / j >= 2 cells each, offset by whole cells
    j = draw(st.sampled_from([j for j in range(1, n // 2 + 1)
                              if n % j == 0]))
    nu = draw(st.integers(0, n // j - 1)) * L / n
    return make_stripes(StripeSpec(axis, L / (2 * j), nu), L, n, d)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), u=slice_fields())
def test_slice_terms_match_per_line_loop(data, u):
    params = SLICE_PARAMS[u.dims]
    rows, mbar, gbar, wcal = slice_terms_direct(u, params)

    def close(ref):
        return pytest.approx(ref, rel=1e-12, abs=1e-12)

    terms = _slice_terms(u, params)
    got = [(ax + 1, k, float(m), float(g))
           for ax in range(u.dims)
           for k, (m, g) in enumerate(zip(terms.mbar[ax].ravel(),
                                          terms.gbar[ax].ravel()))]
    assert [r[:2] for r in got] == [r[:2] for r in rows]
    assert np.array([r[2:] for r in got]) == close(
        np.array([r[2:] for r in rows]))
    rep = lower_bound_report(u, params)
    assert rep.mbar == close(mbar)
    assert rep.gbar == close(gbar)
    assert rep.wcal == close(wcal)
    for i in range(1, u.dims + 1):
        perp = data.draw(st.tuples(*[st.integers(0, u.n - 1)]
                                   * (u.dims - 1)))
        k = int(np.ravel_multi_index(perp, (u.n,) * (u.dims - 1)))
        _, _, m_ref, g_ref = rows[(i - 1) * u.n ** (u.dims - 1) + k]
        assert directional_mm(u, i, perp, params) == close(m_ref)
        assert directional_g(u, i, perp, params) == close(g_ref)
