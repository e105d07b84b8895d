"""Property tests of the array-level energy and gradient
(``energy._FieldObjective``) and of the broadcast stripe search in
``flow.stripe_metrics`` against the field-object reference loops in
``helpers``: both must agree bit for bit, not just to rounding."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (energy_gradient_direct, stripe_search_direct,
                     total_energy_direct)
from stripes import energy
from stripes.field import PeriodicField, StripeSpec, make_stripes
from stripes.flow import (StripeMetrics, energy_gradient, fourier_anisotropy,
                          stripe_metrics)
from stripes.model import ModelParams

SETTINGS = settings(max_examples=25, deadline=None)
MAX_N = {2: 8, 3: 5}
# kernel truncation; only the shell count depends on it, the same on both
# sides
TOL = {2: 1e-7, 3: 1e-4}
# samples sitting exactly on a well are where the clamped reference and
# the unchecked arrays could part
SAMPLE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def fields(draw):
    """(field, params, kernel tol) with exact 0/1 samples among the rest,
    in the default regime p >= d + 2."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, MAX_N[d]))
    L = draw(st.floats(0.5, 3.0))
    params = ModelParams(d=d, p=draw(st.floats(d + 2.0, d + 4.0)),
                         tau=draw(st.floats(0.05, 1.0)),
                         eps=draw(st.floats(0.01, 0.2)), L=L)
    vals = draw(arrays(float, (n,) * d, elements=SAMPLE))
    return PeriodicField(d, n, L, vals), params, TOL[d]


@SETTINGS
@given(case=fields())
def test_objective_energy_is_bit_identical_to_reference(case):
    u, params, tol = case
    mm, nl, total = total_energy_direct(u, params, tol=tol)
    obj = energy._FieldObjective(params, u.L, u.n, tol=tol)
    assert obj.energy(u.values) == total
    b = energy.total_energy(u, params, tol=tol)
    assert (b.mm_term, b.nonlocal_term, b.total) == (mm, nl, total)


@SETTINGS
@given(case=fields(), kappa=st.floats(1e-5, 1e-1))
def test_objective_gradient_is_bit_identical_to_reference(case, kappa):
    u, params, tol = case
    ref = energy_gradient_direct(u, params, kappa, tol=tol)
    obj = energy._FieldObjective(params, u.L, u.n, tol=tol)
    assert np.array_equal(obj.grad(u.values, kappa), ref)
    assert np.array_equal(energy_gradient(u, params, kappa, tol=tol), ref)


def test_wrappers_reject_a_field_of_another_dimension(ps2):
    u = PeriodicField(3, 4, 2.0, np.full((4, 4, 4), 0.5))
    for fn in (energy.total_energy, energy.nonlocal_energy, energy_gradient):
        with pytest.raises(ValueError, match="does not match params.d"):
            fn(u, ps2)


@st.composite
def stripe_cases(draw):
    """(field, h_grid, nu_grid) on a grid the half-periods tile; the field
    is noise with exact 0/1 samples among the rest, or an exact stripe
    pattern, against which several candidates tie."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([4, 8, 12] if d == 2 else [4, 6]))
    L = draw(st.floats(0.5, 3.0))
    hs = [L / (2 * j) for j in range(1, n // 2 + 1) if n % (2 * j) == 0]
    h_grid = draw(st.lists(st.sampled_from(hs), min_size=1, max_size=3))
    nu_grid = list(np.arange(n) * (L / n))
    if draw(st.booleans()):
        vals = make_stripes(StripeSpec(draw(st.integers(1, d)),
                                       draw(st.sampled_from(hs)), 0.0),
                            L, n, d).values.copy()
    else:
        vals = draw(arrays(float, (n,) * d, elements=SAMPLE))
    return PeriodicField(d, n, L, vals), h_grid, nu_grid


@settings(max_examples=40, deadline=None)
@given(case=stripe_cases())
def test_stripe_metrics_matches_make_stripes_loop(case):
    u, h_grid, nu_grid = case
    dist, ax, h, nu = stripe_search_direct(u, h_grid, nu_grid)
    expected = StripeMetrics(
        best_axis=ax, best_h=h, best_nu=nu, l1_to_best_stripes=dist,
        fourier_anisotropy=fourier_anisotropy(u, ax))
    assert stripe_metrics(u, h_grid, nu_grid) == expected


@pytest.mark.parametrize("h, n", [(0.3, 8), (0.5, 5)])
def test_stripe_metrics_rejects_an_h_that_does_not_tile(h, n):
    # 2h = 0.6 does not divide L = 2; 2h = 1 spans 2.5 of 5 cells
    u = PeriodicField(2, n, 2.0, np.full((n, n), 0.5))
    with pytest.raises(ValueError) as expected:
        make_stripes(StripeSpec(1, h, 0.0), 2.0, n, 2)
    with pytest.raises(ValueError) as got:
        stripe_metrics(u, [1.0, h], np.arange(n) * (2.0 / n))
    assert str(got.value) == str(expected.value)


def test_stripe_metrics_rejects_a_nonpositive_h():
    u = PeriodicField(2, 8, 2.0, np.full((8, 8), 0.5))
    with pytest.raises(ValueError, match="h must be positive"):
        stripe_metrics(u, [1.0, 0.0], np.arange(8) * 0.25)
