"""Property tests of the 1D objective (``onedim._ProfileObjective``) and
of the vectorized gamma update (``onedim._gamma_update``) against their
references: the ``np.roll``/``double_well`` arithmetic in ``helpers`` and
the scalar ``gamma_pointwise_optimum`` at every sample.  Both must agree
bit for bit, not just to rounding."""
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import count_ffts, profile_energy_direct, profile_grad_direct
from stripes import kernel, onedim
from stripes.model import ModelParams

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
    obj = onedim._ProfileObjective(params, L, G.size)
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
    obj = onedim._ProfileObjective(params, L, G.size)
    # an infinite coefficient meeting a flat step gives NaN on both sides
    with np.errstate(invalid="ignore"):
        ref, interaction = profile_grad_direct(G, gamma, params, L)
        grad = obj.grad(G, gamma)
    np.testing.assert_array_equal(grad, ref)
    assert np.array_equal(obj.interaction(G), interaction)


def test_energy_then_grad_transforms_the_profile_once(ps1, monkeypatch):
    obj = onedim._ProfileObjective(ps1, 2.0, 64)
    G = np.random.default_rng(4).uniform(0.0, 1.0, 64)
    gamma = np.random.default_rng(5).uniform(1.0, 3.0, 64)
    calls = count_ffts(monkeypatch)
    e = obj.energy(G, gamma)
    g = obj.grad(G, gamma)
    assert calls == {"rfftn": 1, "irfftn": 1}
    monkeypatch.undo()
    # an equal-valued copy is another array: evaluated afresh, same bits
    assert np.array_equal(obj.grad(G.copy(), gamma), g)
    fresh = onedim._ProfileObjective(ps1, 2.0, 64)
    assert np.array_equal(fresh.grad(G, gamma), g)
    assert fresh.energy(G.copy(), gamma) == e


def test_profile_descent_transforms_each_trial_once(monkeypatch):
    # wide enough transition layers that the descent takes a dozen steps
    params = ModelParams(d=1, p=3.0, tau=0.05, eps=0.2, L=1.0)
    h, n = 0.5, 64
    kernel.marginal_operator(2.0 * h, n, params)  # build the table first
    results, reflections = [], []
    descend, reflect = onedim.projected_bb, onedim._reflect

    def spy(*args, **kwargs):
        results.append(descend(*args, **kwargs))
        return results[-1]

    def counted(*args, **kwargs):
        reflections.append(1)
        return reflect(*args, **kwargs)

    monkeypatch.setattr(onedim, "projected_bb", spy)
    monkeypatch.setattr(onedim, "_reflect", counted)
    calls = count_ffts(monkeypatch)
    res = onedim.minimize_profile(params, h, n=n)
    (bb,) = results
    assert bb.evals > bb.iterations == res.iterations > 0
    # the start and every trial are reflected and transformed once, and so
    # is the final profile that f1d values; each iteration's gradient adds
    # only its inverse rFFT
    assert len(reflections) == bb.evals + 2
    assert calls == {"rfftn": bb.evals + 2, "irfftn": bb.iterations}


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
        ref = [onedim.gamma_pointwise_optimum(a[j], b[j], m, w)
               for j in range(size)]
    assert got.tolist() == ref
