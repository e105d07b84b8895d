"""Directional lower-bound decomposition of the energy.

The energy splits, direction by direction, into a directional interfacial
term Mbar^i, a slice coercivity term Gbar^i >= 0, a nonnegative cross term
I^i penalizing genuinely multi-directional behaviour, and a flat-set
double-well penalty Wcal:

    F(u) >= (1/L^d) [ sum_i ( -Mbar^i + Gbar^i + I^i ) + Wcal ],

with equality for one-dimensional fields.  On the lattice the identity
behind the cross term is exact: summing the axis-slice nonlocal terms
(against the lattice marginal of the periodized kernel) overshoots the full
nonlocal term by exactly the sum of the cross terms, so the slack of the
bound reduces to Wcal (C_tau - 2) >= 0 up to rounding.

All discrete gradients are forward differences; the partition between the
active set {||grad u||_1 > delta_grad} (feeding Mbar) and the flat set
(feeding Wcal) uses one shared threshold, ``default_delta_grad(u)``, so no
double-well mass is dropped or double counted.  The periodized kernels are
truncated at KERNEL_TOL (``cross_term`` also takes another tolerance).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import kernel as _kernel
from .energy import total_energy
from .field import PeriodicField, gradient
from .model import ModelParams, double_well

KERNEL_TOL = 1e-7   # truncation tolerance of the periodized kernel grids


def default_delta_grad(u: PeriodicField) -> float:
    """Active-gradient threshold: effectively exact zero detection."""
    return 1e-12 / u.h_grid


def _grad_l1(diffs: list[np.ndarray]) -> np.ndarray:
    return sum(np.abs(g) for g in diffs)


def _axis_operator(u: PeriodicField, params: ModelParams
                   ) -> _kernel.PeriodicKernelOperator:
    """Operator of the lattice marginal of the periodized kernel grid along
    one axis (the same on every axis, by symmetry).

    This is the rectangle-rule counterpart of the continuum marginal; using
    it (rather than the closed-form marginal) makes the cross-term identity
    exact on the lattice.
    """
    kgrid = _kernel.periodized_kernel_grid(u.L, u.n, params, tol=KERNEL_TOL)
    return _kernel.PeriodicKernelOperator(
        _kernel.lattice_marginal(kgrid, 0, u.h_grid))


@dataclass(frozen=True)
class DecompositionReport:
    mbar: tuple[float, ...]
    gbar: tuple[float, ...]
    cross: tuple[float, ...]
    wcal: float
    lower_bound: float
    full_energy: float
    slack: float

    def to_json(self) -> str:
        return json.dumps({
            "mbar": list(self.mbar),
            "gbar": list(self.gbar),
            "cross": list(self.cross),
            "wcal": self.wcal,
            "lower_bound": self.lower_bound,
            "full_energy": self.full_energy,
            "slack": self.slack,
        })


def _mm_densities(u: PeriodicField, alpha: float
                  ) -> tuple[list[np.ndarray], np.ndarray]:
    """Density of Mbar^i on the grid for every axis i,
        3 alpha |d_i u| ||grad u||_1 + (3/alpha) W(u) |d_i u| / ||grad u||_1,
    and the active set {||grad u||_1 > delta_grad} it is integrated over."""
    diffs = gradient(u)
    gl1 = _grad_l1(diffs)
    active = gl1 > default_delta_grad(u)
    w = double_well(u.values)
    dens = []
    for g in diffs:
        di = np.abs(g)
        ratio = np.zeros_like(gl1)
        ratio[active] = di[active] / gl1[active]
        dens.append(3.0 * alpha * di * gl1 + (3.0 / alpha) * w * ratio)
    return dens, active


def _line(u: PeriodicField, ax: int, x_perp) -> tuple:
    """Index of the grid line along ``ax`` through ``x_perp``."""
    idx = tuple(np.atleast_1d(x_perp).astype(int)) if u.dims > 1 else ()
    return idx[:ax] + (slice(None),) + idx[ax:]


def directional_mm(u: PeriodicField, i: int, x_perp, params: ModelParams
                   ) -> float:
    """Directional interfacial density along the slice through ``x_perp``:

    integral over the slice [0, L) on the active set of
        3 alpha |d_i u| ||grad u||_1 + (3/alpha) W(u) |d_i u| / ||grad u||_1.
    """
    dens, active = _mm_densities(u, params.alpha)
    line = _line(u, i - 1, x_perp)
    return float(np.sum(dens[i - 1][line][active[line]]) * u.h_grid)


def directional_g(u: PeriodicField, i: int, x_perp, params: ModelParams
                  ) -> float:
    """Slice coercivity term:
    Mbar^i(0, L) * C_tau  minus the slice 1D nonlocal term.

    Zero exactly on constant slices.  The continuum term is nonnegative,
    but the lattice one is not once the grid does not resolve the
    transition layer: a one-cell jump costs Mbar = 3 alpha / dx against 1
    for a continuum transition, and on binary slices Gbar < 0 once
    dx >~ 3 alpha.
    """
    mbar = directional_mm(u, i, x_perp, params)
    line = u.values[_line(u, i - 1, x_perp)]
    nl = _axis_operator(u, params).pair_sum(line) * u.h_grid ** 2
    return mbar * _kernel.c_tau(params) - nl


def _cross_table(values: np.ndarray, ax: int) -> np.ndarray:
    """The table B_i of ``cross_term`` from the autocorrelation C of
    ``values`` minus its mean, clipped at 0: every entry is a sum of
    squares, so a negative value can only be rounding."""
    f = np.fft.rfftn(values - values.mean())
    corr = np.fft.irfftn(f * f.conj(), s=values.shape,
                         axes=range(values.ndim))
    c_axis = corr[tuple(slice(None) if a == ax else slice(0, 1)
                        for a in range(corr.ndim))]
    c_perp = corr.take([0], axis=ax)
    c_refl = np.roll(np.flip(corr, axis=ax), 1, axis=ax)
    table = 4.0 * (corr.flat[0] - c_axis - c_perp) + 2.0 * (corr + c_refl)
    return np.maximum(table, 0.0)


def cross_term(u: PeriodicField, i: int, params: ModelParams,
               trunc_radius: float | None = None, tol: float = KERNEL_TOL
               ) -> float:
    """Nonnegative cross term

        I^i = (1/d) int_{zeta_i > 0} int [ (u(x + zeta_i e_i) - u(x))
              - (u(x + zeta) - u(x + zeta_i^perp)) ]^2 K_tau(zeta) dx dzeta.

    For a torus lag lam = (lam_i e_i, lam_perp) the sum over x of the
    squared bracket is, with C(lam) = sum_x u(x) u(x + lam) from one
    rfftn/irfftn pair (of u minus its mean: B_i is unchanged and rounding
    stays relative to the variation of u) and R_i the flip of component i,

        B_i(lam) = 4 C(0) - 4 C(lam_i e_i) - 4 C(lam_perp) + 2 C(lam)
                   + 2 C(R_i lam) >= 0.

    By default I^i = sum_lam K(lam) B_i(lam) vol^2 / (2d) against the
    periodized kernel (the form entering the exact lattice identity).  With
    ``trunc_radius`` set, the sum runs over open-lattice lags 0 < m_i <= M,
    |m_perp|_inf <= M, M = floor(trunc_radius / h), with weights
    (||m||_1 h + a)^(-p) on B_i at the wrapped lag, normalisation vol^2 / d
    and tail controlled by ``cross_term_tail_bound``.
    """
    ax = i - 1
    if not (0 <= ax < u.dims):
        raise IndexError(f"axis {i} out of range for dims={u.dims}")
    if trunc_radius is not None and not (
            np.isfinite(trunc_radius) and trunc_radius >= u.h_grid):
        raise ValueError(f"trunc_radius must be finite and >= the grid "
                         f"spacing {u.h_grid}, got {trunc_radius}")
    n, d = u.n, u.dims
    table = _cross_table(u.values, ax)
    vol2 = u.h_grid ** (2 * d)
    if trunc_radius is None:
        kgrid = _kernel.periodized_kernel_grid(u.L, u.n, params, tol=tol)
        return float(np.sum(kgrid * table)) * vol2 / (2.0 * d)

    m_max = int(np.floor(trunc_radius / u.h_grid))
    # one slab of perpendicular lags per m_i: memory stays O((2M+1)^(d-1))
    perp = np.ix_(*[np.arange(-m_max, m_max + 1)] * (d - 1))
    perp_norm = sum(np.abs(m) for m in perp)
    wrapped = tuple(m % n for m in perp)
    total = 0.0
    for mi in range(1, m_max + 1):
        weight = ((mi + perp_norm) * u.h_grid
                  + params.kernel_scale) ** (-params.p)
        total += float(np.sum(weight * table.take(mi % n, axis=ax)[wrapped]))
    return total * vol2 / d


def cross_term_tail_bound(trunc_radius: float, u: PeriodicField,
                          params: ModelParams) -> float:
    """Upper bound on the cross-term change from enlarging the truncation:
    the bracket is at most 2 in modulus, so the tail is controlled by the
    kernel mass outside the box (with a margin for the lattice sum)."""
    d = params.d
    R = max(trunc_radius - u.h_grid, 0.0)
    box = _kernel._box_int([(R, R)] * d, params.kernel_scale, params.p)
    tail = _kernel.mass(params) - box
    return 4.0 / d * u.L ** d * tail * 1.5


def flat_penalty(u: PeriodicField, params: ModelParams) -> float:
    """(3/alpha) sum W(u) vol over the flat set {||grad u||_1 <= delta_grad},
    with delta_grad = ``default_delta_grad(u)``."""
    gl1 = _grad_l1(gradient(u))
    flat = gl1 <= default_delta_grad(u)
    vol = u.h_grid ** u.dims
    return float((3.0 / params.alpha)
                 * np.sum(double_well(u.values[flat])) * vol)


def lower_bound_report(u: PeriodicField, params: ModelParams
                       ) -> DecompositionReport:
    """Assemble the directional lower bound and its slack against the full
    energy, with a single shared kernel grid and gradient threshold."""
    if u.dims != params.d:
        raise ValueError("field dimension does not match params.d")
    d = u.dims
    vol = u.h_grid ** d
    dens, active = _mm_densities(u, params.alpha)
    ctau = _kernel.c_tau(params)

    axis_op = _axis_operator(u, params)

    mbars = [float(np.sum(dens[ax][active]) * vol) for ax in range(d)]
    gbars = [mbar * ctau
             - axis_op.pair_sum(u.values, axis=ax) * u.h_grid ** (d + 1)
             for ax, mbar in enumerate(mbars)]
    crosses = [cross_term(u, ax + 1, params) if d > 1 else 0.0
               for ax in range(d)]

    wcal = flat_penalty(u, params)
    lower = (sum(-m + g for m, g in zip(mbars, gbars)) + sum(crosses)
             + wcal) / u.L ** d
    full = total_energy(u, params, tol=KERNEL_TOL).total
    return DecompositionReport(
        mbar=tuple(mbars), gbar=tuple(gbars), cross=tuple(crosses),
        wcal=wcal, lower_bound=lower, full_energy=full, slack=full - lower)


def slice_tables(u: PeriodicField, params: ModelParams
                 ) -> list[tuple[int, int, float, float]]:
    """Rows (i, slice_index, mbar, gbar) for every direction and slice line
    (slice lines enumerated in row-major order over the perpendicular grid).
    """
    dens, active = _mm_densities(u, params.alpha)
    axis_op = _axis_operator(u, params)
    ctau = _kernel.c_tau(params)
    rows = []
    for ax in range(u.dims):
        for flat_idx, idx in enumerate(np.ndindex((u.n,) * (u.dims - 1))):
            line = _line(u, ax, idx)
            mbar = float(np.sum(dens[ax][line][active[line]]) * u.h_grid)
            nl = axis_op.pair_sum(u.values[line]) * u.h_grid ** 2
            rows.append((ax + 1, flat_idx, mbar, mbar * ctau - nl))
    return rows


def write_slice_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("i,slice_index,mbar,gbar\n")
        for i, k, m, g in rows:
            fh.write(f"{i},{k},{m!r},{g!r}\n")


def positivity_identity_check(u: PeriodicField, j: int, axis_subset,
                              params: ModelParams
                              ) -> tuple[float, float, float]:
    """Check the signed cross-correlation identity

        -int int (u(x) - u(x + zeta_j e_j))
                 (u(x + zeta_j e_j) - u(x + zeta_j e_j + s)) K_tau
        = 1/2 int_{zeta_j > 0} int [ (u(x + zeta_j e_j) - u(x))
                 - (u(x + zeta_j e_j + s) - u(x + s)) ]^2 K_tau,

    with s the displacement along the axes in ``axis_subset``.  Both sides
    are evaluated on the torus against the same periodized kernel (the right
    side as a quarter of the full-lag sum, which equals the half-lag form by
    symmetry).  Returns (lhs, rhs, gap).
    """
    ax = j - 1
    subset = [a - 1 for a in np.atleast_1d(axis_subset).astype(int)]
    if ax in subset:
        raise ValueError("j must not belong to axis_subset")
    if any(not (0 <= a < u.dims) for a in subset + [ax]):
        raise IndexError("axis out of range")
    kgrid = _kernel.periodized_kernel_grid(u.L, u.n, params, tol=KERNEL_TOL)
    n, d = u.n, u.dims
    vals = u.values
    vol2 = u.h_grid ** (2 * d)
    lhs = 0.0
    rhs = 0.0
    axes = tuple(range(d))
    for lag in itertools.product(range(n), repeat=d):
        s_lag = tuple(-l if a in subset else 0 for a, l in enumerate(lag))
        j_lag = tuple(-lag[ax] if a == ax else 0 for a in range(d))
        u_j = np.roll(vals, j_lag, axis=axes)
        u_s = np.roll(vals, s_lag, axis=axes)
        u_js = np.roll(u_j, s_lag, axis=axes)
        k = kgrid[lag]
        lhs += -k * float(np.sum((vals - u_j) * (u_j - u_js)))
        rhs += 0.25 * k * float(np.sum(((u_j - vals) - (u_js - u_s)) ** 2))
    lhs *= vol2
    rhs *= vol2
    return lhs, rhs, lhs - rhs
