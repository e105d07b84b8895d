"""Property tests of the autocorrelation cross term against the all-lags
reference loop in ``helpers.cross_term_direct``."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cross_term_direct, smooth_field
from stripes import kernel
from stripes.decomposition import cross_term
from stripes.field import PeriodicField, Profile1D, make_one_dimensional
from stripes.model import ModelParams

PARAMS = {2: ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0),
          3: ModelParams(d=3, p=6.0, tau=0.05, eps=0.05, L=1.0)}
MAX_N = {2: 12, 3: 6}
SETTINGS = settings(max_examples=25, deadline=None)

dims = st.sampled_from([2, 3])
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def generic_fields(draw):
    """An iid uniform field, or a smooth one where the grid resolves its
    modes (n >= 7): never one-dimensional, so the cross term is well away
    from 0."""
    d = draw(dims)
    n = draw(st.integers(3, MAX_N[d]))
    rng = np.random.default_rng(draw(seeds))
    L = PARAMS[d].L
    if n >= 7 and draw(st.booleans()):
        return smooth_field(d, n, L, rng)
    return PeriodicField(d, n, L, rng.uniform(0.0, 1.0, (n,) * d))


def lifted(draw, d: int) -> PeriodicField:
    """A random profile g lifted to u(x) = g(x_j) along a random axis j."""
    n = draw(st.integers(2, MAX_N[d]))
    rng = np.random.default_rng(draw(seeds))
    g = Profile1D(n, PARAMS[d].L, rng.uniform(0.0, 1.0, n))
    return make_one_dimensional(g, draw(st.integers(1, d)), d, n)


@SETTINGS
@given(u=generic_fields())
def test_cross_term_matches_all_lags_loop(u):
    params = PARAMS[u.dims]
    for i in range(1, u.dims + 1):
        ref = cross_term_direct(u, i, params)
        assert cross_term(u, i, params) == pytest.approx(ref, rel=1e-12)


@SETTINGS
@given(data=st.data(), u=generic_fields())
def test_cross_term_translation_and_reflection_invariant(data, u):
    params = PARAMS[u.dims]
    shift = data.draw(st.tuples(*[st.integers(0, u.n - 1)] * u.dims))
    moved = [PeriodicField(u.dims, u.n, u.L, np.roll(
        u.values, shift, axis=tuple(range(u.dims))))]
    moved += [PeriodicField(u.dims, u.n, u.L, np.flip(u.values, axis=ax))
              for ax in range(u.dims)]
    for i in range(1, u.dims + 1):
        base = cross_term(u, i, params)
        for v in moved:
            assert cross_term(v, i, params) == pytest.approx(base, rel=1e-12)


@SETTINGS
@given(data=st.data(), d=dims, exponent=st.integers(1, 16),
       binary=st.booleans())
def test_cross_term_nonnegative(data, d, exponent, binary):
    # a lifted profile plus noise down to rounding level: the table entries
    # near 0 are where rounding could turn negative
    u = lifted(data.draw, d)
    rng = np.random.default_rng(data.draw(seeds))
    noise = rng.uniform(-1.0, 1.0, u.values.shape) * 10.0 ** -exponent
    vals = (u.values + noise > 0.5).astype(float) if binary \
        else np.clip(u.values + noise, 0.0, 1.0)
    v = PeriodicField(d, u.n, u.L, vals)
    for i in range(1, d + 1):
        assert cross_term(v, i, PARAMS[d]) >= 0.0


@SETTINGS
@given(data=st.data(), d=dims)
def test_cross_term_vanishes_on_lifted_fields(data, d):
    u = lifted(data.draw, d)
    params = PARAMS[d]
    # the bracket cancels exactly; the FFT table leaves rounding of order
    # eps * sum (u - mean)^2 per lag, summed against the kernel
    kgrid = kernel.periodized_kernel_grid(u.L, u.n, params)
    scale = (float(np.sum((u.values - u.values.mean()) ** 2))
             * float(np.sum(kgrid)) * u.h_grid ** (2 * d))
    for i in range(1, d + 1):
        assert cross_term_direct(u, i, params) == 0.0
        assert 0.0 <= cross_term(u, i, params) <= 1e-13 * scale
