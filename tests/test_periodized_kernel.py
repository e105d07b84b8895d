"""Property tests of the exponential-sum periodized-kernel builder: its
certificates meet the one truncation rule (0.9 machine epsilon times the
bound f_max on every entry), its tables stay within their certificates of
the per-point shell loop in ``helpers.periodized_values_direct`` and of
finer exponential sums, every grid is exactly symmetric, invalid grids are
rejected, and the kernel operator's pair sums match direct lag sums."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (exp_sum_bound_loop, exp_sum_nodes_loop,
                     lattice_marginal, nonlocal_direct,
                     periodized_values_direct, symmetrized_reference,
                     table_bound)
from stripes import kernel
from stripes.model import ModelParams

SETTINGS = settings(max_examples=20, deadline=None)
EPS = np.finfo(float).eps
# truncation of the shell-loop oracle: at 1e-7 its d=3 loop takes seconds
# per grid, so d=3 runs it at 1e-4
TOL = {1: 1e-7, 2: 1e-7, 3: 1e-4}
MAX_N = {1: 17, 2: 17, 3: 5}


@st.composite
def families(draw):
    """(dim, n, pe, a, L, tol) for a kernel of the default regime
    (beta = p - d - 1 in [1, 3], tau in [0.05, 1], a = tau^(1/beta)),
    with the oracle's truncation tol.
    The oracle subtracts the box integral from the full mass of f, which
    loses about log10(mass / value) digits; these ranges keep that loss
    well below the certificates."""
    dim = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(2, MAX_N[dim]))
    beta = draw(st.floats(1.0, 3.0))
    tau = draw(st.floats(0.05, 1.0))
    L = draw(st.floats(1.0, 3.0) if dim == 3 else st.floats(0.5, 3.0))
    return dim, n, dim + 1.0 + beta, tau ** (1.0 / beta), L, TOL[dim]


def lags(n: int, dim: int, L: float) -> np.ndarray:
    axis = np.arange(n, dtype=float) * (L / n)
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)


@SETTINGS
@given(family=families())
@example(family=(1, 16, 3.0, 0.05, 1.0, 1e-7))
@example(family=(2, 16, 4.0, 0.05, 2.0, 1e-7))
@example(family=(2, 17, 4.0, 0.05, 2.0, 1e-7))
def test_builder_within_certificates_of_shell_loop(family):
    dim, n, pe, a, L, tol = family
    vals, cert = kernel._exp_sum_table(n, dim, pe, a, L)
    ref, _, cert_ref = periodized_values_direct(lags(n, dim, L), dim, pe, a,
                                                L, tol)
    assert vals.shape == ref.shape == (n,) * dim
    assert cert.bound <= 0.9 * EPS * kernel._majorant(dim, pe, a, L)[2]
    assert np.max(np.abs(vals - ref)) <= cert.bound + cert_ref


@SETTINGS
@given(dim=st.sampled_from([1, 2, 3]), n=st.integers(2, 9),
       beta=st.floats(1.0, 3.0), tau=st.floats(0.01, 1.0),
       L=st.floats(0.5, 4.0))
def test_finer_build_stays_within_certificate(dim, n, beta, tau, L):
    # half the step over a wider node range: both tables lie within their
    # certificates of the exact periodization, so within the sum of both,
    # up to the rounding of two sums of positive terms (nodes * eps
    # relative), which certificates at the entries' last bit leave visible
    pe, a = dim + 1.0 + beta, tau ** (1.0 / beta)
    vals, cert = kernel._exp_sum_table(n, dim, pe, a, L)
    majorant = kernel._majorant(dim, pe, a, L)
    h, r_lo, r_hi = kernel._nodes(dim, pe, a, majorant)
    assert (cert.step, cert.nodes) == (h, r_hi - r_lo + 1)
    fine = (h / 2.0, 2 * r_lo - 20, 2 * r_hi + 10)
    finer = kernel._exp_sum(n, dim, pe, a, L, *fine)
    rounding = (3 * cert.nodes + 30) * EPS * finer
    assert cert.bound <= 0.9 * EPS * majorant[2]
    assert np.all(np.abs(vals - finer) <= cert.bound + rounding
                  + kernel._bound(pe, a, majorant, *fine))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("L", [0.05, 1.0, 3.16, 40.0, 1e4])
@pytest.mark.parametrize("beta, tau", [(1.0, 0.05), (2.0, 0.3), (3.0, 1.0)])
def test_nodes_and_bound_match_the_scalar_tail_loop(dim, L, beta, tau):
    # the windowed upper-tail scan and the shared majorant pick the same
    # nodes and certify the same bound, bit for bit, as one scalar
    # upper-tail bound per candidate and a majorant per call
    pe, a = dim + 1.0 + beta, tau ** (1.0 / beta)
    nodes = kernel._nodes(dim, pe, a, kernel._majorant(dim, pe, a, L))
    assert nodes == exp_sum_nodes_loop(dim, pe, a, L)
    _, cert = kernel._exp_sum_table(4, dim, pe, a, L)
    assert cert.bound == exp_sum_bound_loop(dim, pe, a, L, *nodes)


@SETTINGS
@given(d=st.sampled_from([1, 2, 3]), n=st.integers(2, 12),
       L=st.floats(0.5, 3.0))
def test_grid_exactly_symmetric(d, n, L):
    params = ModelParams(d=d, p=d + 2.0, tau=0.05, eps=0.05, L=L)
    grid = kernel.periodized_kernel_grid(L, n, params)
    for ax in range(d):
        # index j <-> n - j (mod n) on one axis
        assert np.array_equal(grid, np.roll(np.flip(grid, ax), 1, ax))
    if d == 2:
        assert np.array_equal(grid, grid.T)
    marginal = kernel.periodized_marginal(L, n, params)
    assert np.array_equal(marginal, np.roll(marginal[::-1], 1))


def test_large_grid_within_certificates_at_sampled_lags(ps2):
    L, n = ps2.L, 256
    op = kernel.kernel_operator(L, n, ps2)
    idx = np.array([[0, 0], [0, 1], [1, 0], [3, 250], [17, 90],
                    [128, 128], [200, 5], [255, 127]])
    points = idx * (L / n)
    ref, _, cert_ref = periodized_values_direct(points, 2, ps2.p,
                                                ps2.kernel_scale, L, 1e-7)
    assert op.certificate.bound <= table_bound(ps2, L)
    assert np.max(np.abs(op.table[idx[:, 0], idx[:, 1]] - ref)) <= (
        op.certificate.bound + cert_ref)


def test_operators_keep_their_certificate(ps1, ps2):
    grid_op = kernel.kernel_operator(ps2.L, 16, ps2)
    marg_op = kernel.marginal_operator(ps1.L, 16, ps1)
    for op, bound in ((grid_op, table_bound(ps2, ps2.L)),
                      (marg_op, table_bound(ps1, ps1.L, marginal=True))):
        cert = op.certificate
        assert 0.0 < cert.bound <= bound
        assert cert.nodes >= 2 and cert.step > 0.0
        assert cert.log_t[1] - cert.log_t[0] == pytest.approx(
            (cert.nodes - 1) * cert.step)
    # a table built outside the caches has none
    assert kernel.PeriodicKernelOperator(grid_op.table).certificate is None


@pytest.mark.parametrize("L, n, bad", [
    (-2.0, 8, "L"), (float("nan"), 8, "L"), (float("inf"), 8, "L"),
    (0.0, 8, "L"),
    (2.0, 8.5, "n"), (2.0, 1, "n"), (2.0, float("nan"), "n"),
])
def test_invalid_grid_rejected(ps2, L, n, bad):
    value = {"L": L, "n": n}[bad]
    for build in (kernel.periodized_kernel_grid, kernel.periodized_marginal):
        with pytest.raises(ValueError, match=f"{bad} must .*{value!r}"):
            build(L, n, ps2)


@pytest.mark.parametrize("n, L", [(2, 1.0), (3, 0.7), (16, 2.0), (17, 3.16),
                                  (64, 1.58), (512, 3.1612), (513, 40.0)])
def test_raw_1d_tables_are_their_own_symmetrization(n, L):
    # entry j of a 1D build is f_j + f_{n-j}, so the marginal operator
    # takes it without averaging; the averaging would return it bit for bit
    for pe, a in [(3.0, 0.05), (2.5, 0.3), (4.0, 1.0)]:
        vals, _ = kernel._exp_sum_table(n, 1, pe, a, L)
        for table in (vals, kernel.marginal_constant(2, pe + 1.0) * vals):
            assert np.array_equal(kernel._symmetrized(table), table)
    params = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=L)
    raw, _ = kernel._exp_sum_table(n, 1, 3.0, params.kernel_scale, L)
    assert np.array_equal(kernel.periodized_marginal(L, n, params),
                          kernel.marginal_constant(2, 4.0) * raw)


@pytest.mark.parametrize("d, p", [(2, 4.0), (2, 6.0), (3, 5.0)])
@pytest.mark.parametrize("tau", [0.05, 0.2])
@pytest.mark.parametrize("L", [0.7, 3.0235639470576742])
def test_tables_equal_the_reference_symmetrization(d, p, tau, L):
    # the sizes include n = 127 (d = 2) and 33 (d = 3), where the raw sum's
    # matrix product can break its reflection symmetry by rounding, so
    # that a table that skipped the reflection averages would differ
    a = tau ** (1.0 / (p - d - 1))
    for n in (2, 3, 4, 7, 8, 16, 33) + ((64, 127, 128) if d == 2 else ()):
        raw, _ = kernel._exp_sum_table(n, d, p, a, L)
        table = kernel._symmetrized(raw)
        assert np.array_equal(table, symmetrized_reference(raw))
        params = ModelParams(d=d, p=p, tau=tau, eps=0.05, L=L)
        assert np.array_equal(kernel.kernel_operator(L, n, params).table,
                              table)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_grid_exactly_permutation_symmetric_d3(n):
    params = ModelParams(d=3, p=5.0, tau=0.05, eps=0.05, L=1.5)
    grid = kernel.periodized_kernel_grid(1.5, n, params)
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(grid, grid.transpose(perm))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_builds_exactly_symmetric_d4(n):
    params = ModelParams(d=4, p=6.0, tau=0.05, eps=0.05, L=1.5)
    op = kernel.kernel_operator(1.5, n, params)
    grid = op.table
    assert grid.shape == (n,) * 4 and np.all(grid > 0.0)
    assert op.certificate.bound <= table_bound(params, 1.5)
    for ax in range(4):
        assert np.array_equal(grid, np.roll(np.flip(grid, ax), 1, ax))
    for perm in itertools.permutations(range(4)):
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
    op = kernel.kernel_operator(1.5, n, ModelParams(d=d, p=d + 2.0, tau=0.05,
                                                    eps=0.05, L=1.5))
    v = np.random.default_rng(seed).uniform(0.0, 1.0, (n,) * d)
    for ax in range(d):
        # one lag sum per line along ax, against the table summed over the
        # other axes
        line_table = lattice_marginal(op.table, ax, 1.0)
        ref = sum(line_table[j] * np.sum((np.roll(v, -j, axis=ax) - v) ** 2,
                                         axis=ax)
                  for j in range(n))
        assert op.pair_sum(v, axis=ax) == pytest.approx(ref, rel=1e-12)


def test_axis_pair_sum_needs_the_table_dimension(ps2):
    op = kernel.kernel_operator(ps2.L, 4, ps2)
    with pytest.raises(ValueError, match="acts on 2D arrays, got 3D"):
        op.pair_sum(np.zeros((4, 4, 4)), axis=0)
