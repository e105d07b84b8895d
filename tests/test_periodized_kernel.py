"""Property tests of the folded periodized-kernel builder against the
per-point shell loop in ``helpers.periodized_values_direct``, and of the
kernel operator's pair sums against direct lag sums."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import nonlocal_direct, periodized_values_direct
from stripes import kernel
from stripes.model import ModelParams

RTOL = 1e-12
SETTINGS = settings(max_examples=20, deadline=None)
# the d=3 reference loop at tol 1e-7 takes seconds per grid; the shell
# count only changes how many terms both sides sum, so d=3 uses 1e-4
TOL = {1: 1e-7, 2: 1e-7, 3: 1e-4}
MAX_N = {1: 17, 2: 17, 3: 5}


@st.composite
def families(draw):
    """(dim, n, pe, a, L, tol) for a kernel of the default regime
    (beta = p - d - 1 in [1, 3], tau in [0.05, 1], a = tau^(1/beta)).
    Both sides subtract the box integral from the full mass of f, which
    loses about log10(mass / value) digits; these ranges keep that loss
    well below RTOL."""
    dim = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(2, MAX_N[dim]))
    beta = draw(st.floats(1.0, 3.0))
    tau = draw(st.floats(0.05, 1.0))
    L = draw(st.floats(1.0, 3.0) if dim == 3 else st.floats(0.5, 3.0))
    return dim, n, dim + 1.0 + beta, tau ** (1.0 / beta), L, TOL[dim]


def lags(n: int, dim: int, L: float) -> np.ndarray:
    axis = np.arange(n, dtype=float) * (L / n)
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)


def assert_matches(family, shells):
    dim, n, pe, a, L, tol = family
    vals, m, cert = kernel._periodized_lattice(n, dim, pe, a, L, tol,
                                               shells=shells)
    ref, m_ref, cert_ref = periodized_values_direct(lags(n, dim, L), dim, pe,
                                                    a, L, tol, shells=shells)
    assert vals.shape == ref.shape == (n,) * dim
    assert np.max(np.abs(vals - ref) / ref) <= RTOL
    assert (m, cert) == (m_ref, cert_ref)


@SETTINGS
@given(family=families())
@example(family=(1, 16, 3.0, 0.05, 1.0, 1e-7))
@example(family=(2, 16, 4.0, 0.05, 2.0, 1e-7))
@example(family=(2, 17, 4.0, 0.05, 2.0, 1e-7))
def test_builder_matches_shell_loop(family):
    assert_matches(family, shells=None)


@SETTINGS
@given(family=families(), shells=st.integers(1, 12))
def test_builder_matches_shell_loop_with_explicit_shells(family, shells):
    assert_matches(family, shells=shells)


@SETTINGS
@given(d=st.sampled_from([1, 2, 3]), n=st.integers(2, 12),
       L=st.floats(0.5, 3.0))
def test_grid_exactly_symmetric(d, n, L):
    params = ModelParams(d=d, p=d + 2.0, tau=0.05, eps=0.05, L=L)
    grid = kernel.periodized_kernel_grid(L, n, params, tol=TOL[d])
    for ax in range(d):
        # index j <-> n - j (mod n) on one axis
        assert np.array_equal(grid, np.roll(np.flip(grid, ax), 1, ax))
    if d == 2:
        assert np.array_equal(grid, grid.T)
    marginal = kernel.periodized_marginal(L, n, params)
    assert np.array_equal(marginal, np.roll(marginal[::-1], 1))


def test_large_grid_matches_shell_loop_at_sampled_lags(ps2):
    L, n = ps2.L, 256
    grid = kernel.periodized_kernel_grid(L, n, ps2)
    idx = np.array([[0, 0], [0, 1], [1, 0], [3, 250], [17, 90],
                    [128, 128], [200, 5], [255, 127]])
    points = idx * (L / n)
    ref, _, _ = periodized_values_direct(points, 2, ps2.p, ps2.kernel_scale,
                                         L, 1e-7)
    assert np.max(np.abs(grid[idx[:, 0], idx[:, 1]] - ref) / ref) <= RTOL


def test_zero_shells_rejected(ps2):
    # with m = 0 the far-field box no longer contains every lag's origin
    with pytest.raises(ValueError, match="shells"):
        kernel.periodized_kernel_grid(ps2.L, 8, ps2, shells=0)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_grid_exactly_permutation_symmetric_d3(n):
    params = ModelParams(d=3, p=5.0, tau=0.05, eps=0.05, L=1.5)
    grid = kernel.periodized_kernel_grid(1.5, n, params, tol=TOL[3])
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(grid, grid.transpose(perm))


@SETTINGS
@given(dn=st.one_of(st.tuples(st.just(1), st.integers(2, 64)),
                    st.tuples(st.just(2), st.integers(2, 12))),
       seed=st.integers(0, 99))
# coarse d=2 grids: K(0) dominates the table, and a form that cancels it
# loses ~4 digits (the worst seed of 100 at each n)
@example(dn=(2, 2), seed=78)
@example(dn=(2, 3), seed=88)
@example(dn=(2, 4), seed=5)
def test_pair_sum_matches_direct_double_sum(dn, seed):
    d, n = dn
    params = ModelParams(d=d, p=d + 2.0, tau=0.05, eps=0.05, L=2.0)
    op = kernel.kernel_operator(2.0, n, params)
    v = np.random.default_rng(seed).uniform(0.0, 1.0, (n,) * d)
    ref = nonlocal_direct(v, op.table, 1.0)
    assert op.pair_sum(v) == pytest.approx(ref, rel=1e-12)


@SETTINGS
@given(d=st.sampled_from([1, 2, 3]), n=st.integers(2, 10),
       seed=st.integers(0, 99))
# n = 2: K(0) is ~4e3 times K(1), the worst case for a form that cancels it
@example(d=2, n=2, seed=8)
def test_axis_pair_sum_matches_lag_sum(d, n, seed):
    op = kernel.marginal_operator(1.5, n, ModelParams(d=1, p=3.0, tau=0.05,
                                                      eps=0.05, L=1.5))
    v = np.random.default_rng(seed).uniform(0.0, 1.0, (n,) * d)
    for ax in range(d):
        ref = sum(op.table[j] * np.sum((np.roll(v, -j, axis=ax) - v) ** 2)
                  for j in range(n))
        assert op.pair_sum(v, axis=ax) == pytest.approx(ref, rel=1e-12)


def test_axis_pair_sum_needs_1d_table(ps2):
    op = kernel.kernel_operator(ps2.L, 4, ps2)
    with pytest.raises(ValueError, match="all axes"):
        op.pair_sum(np.zeros((4, 4)), axis=0)
