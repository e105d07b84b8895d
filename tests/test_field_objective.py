"""Property tests of the array-level energy and gradient
(``energy._FieldObjective``) and of the broadcast stripe search in
``flow.stripe_metrics`` against the field-object reference loops in
``helpers``: both must agree bit for bit, not just to rounding."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (count_ffts, energy_gradient_direct,
                     stripe_search_direct, total_energy_direct)
from stripes import energy
from stripes.field import PeriodicField, StripeSpec, make_stripes
from stripes.flow import (KAPPA, StripeMetrics, energy_gradient,
                          fourier_anisotropy, stripe_metrics)
from stripes.model import ModelParams

SETTINGS = settings(max_examples=25, deadline=None)
MAX_N = {2: 8, 3: 5}
EPS = np.finfo(float).eps
# samples sitting exactly on a well are where the clamped reference and
# the unchecked arrays could part
SAMPLE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def fields(draw):
    """(field, params) with exact 0/1 samples among the rest,
    in the default regime p >= d + 2."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, MAX_N[d]))
    L = draw(st.floats(0.5, 3.0))
    params = ModelParams(d=d, p=draw(st.floats(d + 2.0, d + 4.0)),
                         tau=draw(st.floats(0.05, 1.0)),
                         eps=draw(st.floats(0.01, 0.2)), L=L)
    vals = draw(arrays(float, (n,) * d, elements=SAMPLE))
    return PeriodicField(d, n, L, vals), params


@SETTINGS
@given(case=fields())
def test_objective_energy_is_bit_identical_to_reference(case):
    u, params = case
    mm, nl, total = total_energy_direct(u, params)
    obj = energy._FieldObjective(params, u.L, u.n)
    assert obj.energy(u.values) == total
    b = energy.total_energy(u, params)
    assert (b.mm_term, b.nonlocal_term, b.total) == (mm, nl, total)


@SETTINGS
@given(case=fields(), kappa=st.floats(1e-5, 1e-1))
def test_objective_gradient_is_bit_identical_to_reference(case, kappa):
    u, params = case
    ref = energy_gradient_direct(u, params, kappa)
    obj = energy._FieldObjective(params, u.L, u.n)
    assert np.array_equal(obj.grad(u.values, kappa), ref)
    assert np.array_equal(energy_gradient(u, params, kappa), ref)


@pytest.mark.parametrize("kind", ["noise", "plateaus"])
def test_objective_is_bit_identical_to_reference_at_the_flow_grid(ps2,
                                                                   kind):
    # the flow's grid, n = 64 in 2D, where the energy terms and the pair
    # form are built in place in their own temporaries: the results match
    # the plain expressions bit for bit, and no input, kept state or
    # returned gradient is written
    n, L = 64, 3.0
    vals = np.random.default_rng(19).uniform(0.0, 1.0, (n, n))
    if kind == "plateaus":
        # two bands and a block on the wells: whole lines of differences
        # vanish and samples sit exactly on 0 and 1
        vals[:, : n // 4] = 0.0
        vals[:, n // 2: 3 * n // 4] = 1.0
        vals[n // 8: n // 4, n // 4: n // 2] = 1.0
    u = PeriodicField(2, n, L, vals)
    v = u.values
    before = v.copy()
    mm, nl, total = total_energy_direct(u, ps2)
    obj = energy._FieldObjective(ps2, L, n)
    assert obj.split(v) == (mm, nl)
    assert obj.energy(v) == total
    f = obj._trial[3]
    weights = obj.op._pair_weights
    assert obj.op.pair_sum_rfft(f) == float(
        2.0 * ((f.real ** 2 + f.imag ** 2) * weights).sum())
    assert np.array_equal(f, np.fft.rfftn(v))
    for kappa in (KAPPA, KAPPA / 10.0, KAPPA / 100.0):
        g = obj.grad(v, kappa)
        g_copy = g.copy()
        assert np.array_equal(g, energy_gradient_direct(u, ps2, kappa))
        assert obj.energy(v) == total
        assert np.array_equal(g, g_copy)
    assert np.array_equal(v, before)
    assert np.array_equal(obj._trial[3], np.fft.rfftn(v))


def test_energy_then_grad_transforms_the_field_once(ps2, monkeypatch):
    obj = energy._FieldObjective(ps2, 2.0, 16)
    v = np.random.default_rng(3).uniform(0.0, 1.0, (16, 16))
    calls = count_ffts(monkeypatch)
    e = obj.energy(v)
    g = obj.grad(v, KAPPA)
    # one rFFT of v for the pair form and the convolution, one inverse
    assert calls == {"rfftn": 1, "irfftn": 1}
    monkeypatch.undo()
    # an equal-valued copy is another array: evaluated afresh, same bits
    assert np.array_equal(obj.grad(v.copy(), KAPPA), g)
    fresh = energy._FieldObjective(ps2, 2.0, 16)
    assert np.array_equal(fresh.grad(v, KAPPA), g)
    assert fresh.energy(v.copy()) == e


def test_grad_at_the_next_kappa_reads_the_iterate(ps2, monkeypatch):
    # a kappa stage ends on a rejected trial; the next stage starts from
    # the same array, whose differences, W' and nonlocal gradient are kept
    obj = energy._FieldObjective(ps2, 2.0, 16)
    v = np.random.default_rng(6).uniform(0.0, 1.0, (16, 16))
    g = obj.grad(v, KAPPA)
    obj.energy(np.clip(v - 1e3 * g, 0.0, 1.0))
    calls = count_ffts(monkeypatch)
    g_next = obj.grad(v, KAPPA / 10.0)
    assert calls == {}
    monkeypatch.undo()
    fresh = energy._FieldObjective(ps2, 2.0, 16)
    assert np.array_equal(fresh.grad(v.copy(), KAPPA / 10.0), g_next)


def test_wrappers_reject_a_field_of_another_dimension(ps2):
    u = PeriodicField(3, 4, 2.0, np.full((4, 4, 4), 0.5))
    for fn in (energy.total_energy, energy.nonlocal_energy, energy_gradient):
        with pytest.raises(ValueError, match="does not match params.d"):
            fn(u, ps2)


@st.composite
def stripe_cases(draw):
    """(field, h_grid, nu_grid) on a grid the half-periods tile, up to the
    flow's n = 64 in 2D; the field is noise with exact 0/1 samples among
    the rest, an exact stripe pattern, against which several candidates
    tie, or such a pattern with a few samples moved by at most 1e-14, so
    that candidates differ in the last bits of their distances only."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([4, 8, 12, 64] if d == 2 else [4, 6]))
    L = draw(st.floats(0.5, 3.0))
    hs = [L / (2 * j) for j in range(1, n // 2 + 1) if n % (2 * j) == 0]
    h_grid = draw(st.lists(st.sampled_from(hs), min_size=1, max_size=3))
    nu_grid = list(np.arange(n) * (L / n))
    kind = draw(st.sampled_from(["noise", "stripes", "near tie"]))
    if kind == "noise" and n > 12:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        vals = rng.uniform(0.0, 1.0, (n,) * d)
        vals[rng.uniform(size=vals.shape) < 0.1] = 0.0
        vals[rng.uniform(size=vals.shape) < 0.1] = 1.0
    elif kind == "noise":
        vals = draw(arrays(float, (n,) * d, elements=SAMPLE))
    else:
        vals = make_stripes(StripeSpec(draw(st.integers(1, d)),
                                       draw(st.sampled_from(hs)), 0.0),
                            L, n, d).values.copy()
    if kind == "near tie":
        index = st.tuples(*[st.integers(0, n - 1)] * d)
        moves = st.tuples(index, st.one_of(st.floats(0.0, 1e-14),
                                           st.sampled_from([EPS, EPS / 2])))
        for idx, delta in draw(st.lists(moves, min_size=1, max_size=4)):
            vals[idx] = abs(vals[idx] - delta)    # 0 -> delta, 1 -> 1 - delta
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
