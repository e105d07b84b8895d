"""Property tests of the 1D objective (``onedim._ProfileObjective``) and
of the vectorized gamma update (``onedim._gamma_update``) against their
references in ``helpers``: the objective must agree with the
``np.roll``/``double_well`` arithmetic bit for bit, not just to rounding,
and the gamma update with the scalar SciPy-root oracle
``gamma_optimum_direct`` to 1e-14 relative (Newton steps and Brent's
method land within an ulp or so of the same root), and it must meet the
first-order condition of its convex objective.  The closed-form energy
change of the objective (``delta``) must match the difference of its
energies to their rounding, and its own rounding must be relative to the
change."""
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (count_ffts, gamma_optimum_direct,
                     profile_coefficients_direct, profile_energy_direct,
                     profile_grad_direct)
from stripes import kernel, onedim
from stripes.model import ModelParams, _well_prime

SETTINGS = settings(max_examples=40, deadline=None)
COEFF = st.one_of(st.just(np.inf), st.floats(1.0, 1e3))


@st.composite
def profiles(draw):
    """(G, gamma, params, L) for even and odd n; gamma is None, a scalar
    >= 1 or n samples with +inf entries among them."""
    n = draw(st.integers(2, 40))
    L = draw(st.floats(0.5, 5.0))
    params = ModelParams(d=1, p=draw(st.floats(3.0, 5.0)),
                         tau=draw(st.floats(0.05, 1.0)),
                         eps=draw(st.floats(0.01, 0.2)), L=1.0)
    # uniform samples, so that a reordered product shows in the last bits
    # of a sum, and some exactly on a well or at the crossing level, where
    # the clamped reference and the unchecked arrays could part
    seed = draw(st.integers(0, 2 ** 32 - 1))
    G = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    for j, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.sampled_from([0.0, 0.5, 1.0])),
                              max_size=n)):
        G[j] = v
    gamma = draw(st.one_of(st.none(), st.floats(1.0, 1e3),
                           arrays(float, n, elements=COEFF)))
    return G, gamma, params, L


@SETTINGS
@given(case=profiles())
def test_profile_energy_is_bit_identical_to_reference(case):
    G, gamma, params, L = case
    obj = onedim._ProfileObjective.of(params, L, G.size)
    # an infinite coefficient meeting a slope whose square underflows, or
    # a zero gradient prefactor (C_tau = 1), gives NaN on both sides
    with np.errstate(invalid="ignore"):
        ref = profile_energy_direct(G, gamma, params, L)
        got = (*obj.split(G, gamma), obj.energy(G, gamma))
    np.testing.assert_array_equal(got, ref)


@SETTINGS
@given(case=profiles())
def test_profile_gradient_is_bit_identical_to_reference(case):
    G, gamma, params, L = case
    obj = onedim._ProfileObjective.of(params, L, G.size)
    # an infinite coefficient costs nothing on a flat step; where it meets
    # a sloped one the gradient reads +-inf or NaN on both sides
    with np.errstate(invalid="ignore"):
        ref, interaction = profile_grad_direct(G, gamma, params, L)
        grad = obj.grad(G, gamma)
    np.testing.assert_array_equal(grad, ref)
    assert np.array_equal(obj.interaction(G), interaction)


def _change(n: int, L: float, params: ModelParams, seed: int,
            exponent: float, kind: str, ties=()):
    """(objective, G, Gc, gamma): uniform samples G, a trial Gc = G + P
    with P of size 10^exponent, and gamma None (kind "one"), n samples in
    [1, 3] ("finite") or those with +inf entries at the steps ``ties``
    ("inf"), where neither G nor Gc has a slope (elsewhere an infinite
    gamma makes both energies +inf)."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(0.0, 1.0, n)
    P = 10.0 ** exponent * rng.uniform(-1.0, 1.0, n)
    gamma = None if kind == "one" else rng.uniform(1.0, 3.0, n)
    # in increasing order, so that a later flat step keeps earlier ones
    for j in sorted(ties):
        G[j + 1], P[j + 1] = G[j], P[j]
        gamma[j] = np.inf
    obj = onedim._ProfileObjective.of(params, L, n)
    return obj, G, G + P, gamma


@st.composite
def changes(draw):
    """``_change`` for n = 64...2048 and P of size 1e-14...1."""
    n = draw(st.integers(64, 2048))
    L = draw(st.floats(0.5, 5.0))
    params = ModelParams(d=1, p=draw(st.floats(3.0, 5.0)),
                         tau=draw(st.floats(0.05, 1.0)),
                         eps=draw(st.floats(0.01, 0.2)), L=1.0)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    exponent = draw(st.floats(-14.0, 0.0))
    kind = draw(st.sampled_from(["one", "finite", "inf"]))
    ties = draw(st.lists(st.integers(0, n - 2), min_size=1,
                         max_size=8)) if kind == "inf" else ()
    return _change(n, L, params, seed, exponent, kind, ties)


def _change_terms(obj, G, Gc, gamma) -> float:
    """The sum of the magnitudes of the terms ``delta(G, Gc, gamma)`` adds
    up, each written with absolute values (the pair form of P by its
    bound 4 ksum |P|^2, the interaction field by its terms conv(|G|) and
    ksum G, G >= 0): delta rounds relative to this, not to the change."""
    P = np.abs(Gc - G)
    D, dP = np.abs(obj.slope(G)), np.abs(obj.slope(Gc - G))
    flux = dP * (2.0 * D + dP)
    well = P * (np.abs(_well_prime(G)) + P * (np.abs(1.0 + 6.0 * G * (G - 1.0))
                                              + P * (np.abs(4.0 * G - 2.0)
                                                     + P)))
    if gamma is not None:
        flux = np.multiply(gamma, flux, out=np.zeros(obj.n), where=flux != 0)
        well = well / gamma
    op = obj.op
    pair = 4.0 * op.ksum * float(P @ P) + 4.0 * float(
        P @ (op.conv(G) + op.ksum * G))
    return (abs(obj.A) * float(flux.sum()) * obj.dx
            + abs(obj.B) * float(well.sum()) * obj.dx
            + obj.dx * obj.dx * pair / obj.L)


@settings(max_examples=40, deadline=None)
@given(case=changes())
def test_profile_change_matches_the_energy_difference(case):
    obj, G, Gc, gamma = case
    local, nonlocal_ = obj.split(G, gamma)
    local_c, nonlocal_c = obj.split(Gc, gamma)
    diff = (local_c - nonlocal_c) - (local - nonlocal_)
    size = abs(local) + abs(nonlocal_) + abs(local_c) + abs(nonlocal_c)
    assert abs(obj.delta(G, Gc, gamma) - diff) <= (onedim.ENERGY_ROUNDING
                                                  * size)


@settings(max_examples=40, deadline=None)
@given(case=changes(), frac=st.floats(0.0, 1.0))
# parts of ~1e-7 whose terms cancel: a gap of 4e-19, 2e-12 of the parts
@example(case=_change(242, 1.0, ModelParams(d=1, p=4.0, tau=1.0, eps=0.125,
                                            L=1.0), 21443, -6.0, "finite"),
         frac=0.25)
def test_profile_change_is_additive_below_the_energy_rounding(case, frac):
    # the change to Gc equals the sum of the changes over a midpoint to
    # rounding of the terms the changes add up, however far below the
    # rounding of the energies they sit
    obj, G, Gc, gamma = case
    mid = G + frac * (Gc - G)
    pairs = ((G, Gc), (G, mid), (mid, Gc))
    parts = [obj.delta(a, b, gamma) for a, b in pairs]
    terms = sum(_change_terms(obj, a, b, gamma) for a, b in pairs)
    assert abs(parts[0] - parts[1] - parts[2]) <= 1e-12 * terms


@pytest.mark.parametrize("d", [1, 2, 3])
def test_objective_of_the_model_is_bit_identical_to_reference(d):
    # a grid, since another operation order rounds A or B differently only
    # for some of the values
    for tau, eps, L, n in itertools.product((0.05, 0.13, 0.2),
                                            (0.04, 0.05, 0.07),
                                            (0.7, 1.3, 2.0, 3.16), (33, 64)):
        params = ModelParams(d=d, p=d + 2.0, tau=tau, eps=eps, L=1.0)
        obj = onedim._ProfileObjective.of(params, L, n)
        A, B, table, cert = profile_coefficients_direct(params, L, n)
        assert (obj.n, obj.A, obj.B) == (n, A, B)
        assert np.array_equal(obj.op.table, table)
        assert obj.op.certificate == cert


def test_energy_then_grad_transforms_the_profile_once(ps1, monkeypatch):
    obj = onedim._ProfileObjective.of(ps1, 2.0, 64)
    G = np.random.default_rng(4).uniform(0.0, 1.0, 64)
    gamma = np.random.default_rng(5).uniform(1.0, 3.0, 64)
    calls = count_ffts(monkeypatch)
    e = obj.energy(G, gamma)
    g = obj.grad(G, gamma)
    assert calls == {"rfft": 1, "irfft": 1}
    # a trial, then its change from G: the trial's energy and the rFFT of
    # the difference; G's slope and interaction field are kept from grad
    Gc = np.clip(G - 1e-3 * g, 0.0, 1.0)
    obj.energy(Gc, gamma)
    change = obj.delta(G, Gc, gamma)
    assert calls == {"rfft": 3, "irfft": 1}
    monkeypatch.undo()
    # an equal-valued copy is another array: evaluated afresh, same bits
    assert np.array_equal(obj.grad(G.copy(), gamma), g)
    fresh = onedim._ProfileObjective.of(ps1, 2.0, 64)
    assert fresh.delta(G.copy(), Gc, gamma) == change
    assert np.array_equal(fresh.grad(G, gamma), g)
    assert fresh.energy(G.copy(), gamma) == e


def test_profile_descent_transforms_each_trial_once(monkeypatch):
    # wide enough transition layers that the descent takes several Newton
    # steps on a dense free set, and a start whose last step is decided by
    # the closed-form change
    params = ModelParams(d=1, p=3.0, tau=0.05, eps=0.2, L=1.0)
    cases = ((params, 0.5, 64), (ModelParams(d=1, p=3.0, tau=0.05, eps=0.05,
                                             L=1.0), 1.58, 512))
    for params, h, n in cases:
        kernel.marginal_operator(2.0 * h, n, params)  # build the table first
    results, reflections, changes = [], [], []
    descend, reflect = onedim._newton_descent, onedim._reflect
    delta = onedim._ProfileObjective.delta

    def spy(*args):
        results.append(descend(*args))
        return results[-1]

    def counted(*args, **kwargs):
        reflections.append(1)
        return reflect(*args, **kwargs)

    def closed_form(*args, **kwargs):
        changes.append(1)
        return delta(*args, **kwargs)

    monkeypatch.setattr(onedim, "_newton_descent", spy)
    monkeypatch.setattr(onedim, "_reflect", counted)
    monkeypatch.setattr(onedim._ProfileObjective, "delta", closed_form)
    calls = count_ffts(monkeypatch)
    for params, h, n in cases:
        reflections.clear()
        changes.clear()
        calls.clear()
        res = onedim.minimize_profile(params, h, n=n)
        newton = results[-1]
        # every iteration but the last, which stops on the gradient test
        # without a trial, evaluates at least one trial
        assert newton.evals >= newton.iterations - 1
        assert newton.iterations == res.iterations > 1
        assert res.evals == newton.evals
        # the start and every trial are reflected and transformed once, and
        # the value of the final profile is the energy evaluated for it;
        # each closed-form change adds the rFFT of the difference, each
        # iteration's gradient only its inverse rFFT, and the Hessian of a
        # dense free set is read from the kernel table without a transform
        assert len(reflections) == newton.evals + 1
        assert calls == {"rfft": newton.evals + 1 + len(changes),
                         "irfft": newton.iterations}
    assert len(changes) > 0


# zero, and magnitudes spread over 1e-10 ... 1e4
WEIGHT = st.one_of(st.just(0.0), st.floats(1e-10, 1e4),
                   st.floats(-10.0, 4.0).map(lambda e: 10.0 ** e))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), size=st.integers(1, 64),
       m=st.one_of(st.sampled_from([1, 2, 10, 100, 1000]),
                   st.floats(1.0, 1e3)),
       w=st.floats(1e-4, 10.0))
def test_gamma_update_equals_pointwise_loop(data, size, m, w):
    a = data.draw(arrays(float, size, elements=WEIGHT))
    b = data.draw(arrays(float, size, elements=WEIGHT))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = onedim._gamma_update(a, b, m, w)
        ref = np.array([gamma_optimum_direct(a[j], b[j], m, w)
                        for j in range(size)])
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)


@settings(max_examples=200, deadline=None)
@given(st.floats(-8, 6), st.floats(0, 6), st.floats(-8, 6),
       st.floats(1e-3, 14))
def test_gamma_update_matches_scipy_brentq_above_m(lb, lm, lw, gap):
    # a < b / m^2 puts the minimizer above m (or within rounding of it),
    # where only Newton steps reach it
    b, m, w = 10.0 ** lb, 10.0 ** lm, 10.0 ** lw
    a = b / m ** 2 * 10.0 ** -gap
    assume(a - b / m ** 2 < 0)
    got = onedim._gamma_update(np.array([a]), np.array([b]), m, w)[0]
    ref = gamma_optimum_direct(a, b, m, w)
    assert got >= m and abs(got - ref) <= 1e-14 * ref


def _dq(gam, a, b, m, w):
    """q'(gamma) of the gamma update's objective, and the size of its terms
    (gamma q''(gamma) included), against which its rounding is measured."""
    dq = a - b / gam ** 2 + 2.0 * w * np.maximum(gam - m, 0.0)
    return dq, a + b / gam ** 2 + 2.0 * w * gam


@settings(max_examples=60, deadline=None)
@given(data=st.data(), size=st.integers(1, 64),
       m=st.one_of(st.sampled_from([1, 2, 10, 100, 1000]),
                   st.floats(1.0, 1e3)),
       w=st.floats(1e-4, 10.0))
def test_gamma_update_meets_the_first_order_condition(data, size, m, w):
    # q is convex on [1, inf): its minimizer is 1 with q'(1) >= 0, or a
    # zero of q'; both up to the rounding of q'
    a = data.draw(arrays(float, size, elements=WEIGHT))
    b = data.draw(arrays(float, size, elements=WEIGHT))
    gam = onedim._gamma_update(a, b, m, w)
    assert np.all(gam >= 1.0) and np.all(np.isfinite(gam))
    dq, scale = _dq(gam, a, b, m, w)
    tol = 8 * np.finfo(float).eps * scale
    at_one = gam == 1.0
    assert np.all(dq[at_one] >= -tol[at_one])
    assert np.all(np.abs(dq[~at_one]) <= tol[~at_one])


def test_gamma_update_reaches_a_root_far_above_m():
    # a = 0 and b / w large put the root near (b / 2w)^(1/3), up to eight
    # decades above m = 1: each Newton step from m grows gamma by about
    # 1.5 until it nears the root, so this takes about 50 steps
    a = np.zeros(3)
    b = np.array([1e4, 1e8, 1e12])
    w = 1e-12
    gam = onedim._gamma_update(a, b, 1.0, w)
    ref = np.array([gamma_optimum_direct(0.0, bj, 1.0, w) for bj in b])
    assert np.all(np.abs(gam - ref) <= 1e-14 * ref)
    assert np.all(gam > 1e5)
    dq, scale = _dq(gam, a, b, 1.0, w)
    assert np.all(np.abs(dq) <= 8 * np.finfo(float).eps * scale)


def test_gamma_update_raises_when_newton_steps_run_out(monkeypatch):
    monkeypatch.setattr(onedim, "NEWTON_ITER", 5)
    with pytest.raises(onedim.ConvergenceError, match="5 Newton steps"):
        onedim._gamma_update(np.zeros(1), np.array([1e4]), 1.0, 1e-4)
