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
(feeding Wcal) uses one shared threshold so no double-well mass is dropped
or double counted.
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


def default_delta_grad(u: PeriodicField) -> float:
    """Active-gradient threshold: effectively exact zero detection."""
    return 1e-12 / u.h_grid


def _grad_l1(diffs: list[np.ndarray]) -> np.ndarray:
    return sum(np.abs(g) for g in diffs)


def _axis_marginal(u: PeriodicField, params: ModelParams, tol: float
                   ) -> np.ndarray:
    """Lattice marginal of the periodized kernel grid along one axis.

    This is the rectangle-rule counterpart of the continuum marginal; using
    it (rather than the closed-form marginal) makes the cross-term identity
    exact on the lattice.
    """
    kgrid = _kernel.periodized_kernel_grid(u.L, u.n, params, tol=tol)
    return _kernel.lattice_marginal(kgrid, 0, u.h_grid)


def _slice_nonlocal_sums(values: np.ndarray, khat: np.ndarray, axis: int,
                         spacing: float, dims: int) -> float:
    """sum_x sum_zeta |u(x + zeta e_i) - u(x)|^2 khat(zeta) vol^2 with the
    1D circular convolution taken along ``axis``."""
    n = values.shape[axis]
    fu = np.fft.rfft(values, axis=axis)
    shape = [1] * values.ndim
    shape[axis] = -1
    fk = np.fft.rfft(khat).reshape(shape)
    conv = np.fft.irfft(fu * fk, n=n, axis=axis)
    ksum = float(np.sum(khat))
    return float(2.0 * (ksum * np.sum(values ** 2) - np.sum(values * conv))
                 * spacing ** (dims + 1))


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


def directional_mm(u: PeriodicField, i: int, x_perp, params: ModelParams,
                   s: float = 0.0, t: float | None = None,
                   delta_grad: float | None = None) -> float:
    """Directional interfacial density along the slice through ``x_perp``:

    integral over [s, t] on the active set of
        3 alpha |d_i u| ||grad u||_1 + (3/alpha) W(u) |d_i u| / ||grad u||_1.
    """
    if t is None:
        t = u.L
    if not (0.0 <= s <= t <= u.L + 1e-12 * u.L):
        raise ValueError("need 0 <= s <= t <= L")
    if delta_grad is None:
        delta_grad = default_delta_grad(u)
    ax = i - 1
    diffs = gradient(u)
    gl1 = _grad_l1(diffs)

    idx = tuple(np.atleast_1d(x_perp).astype(int)) if u.dims > 1 else ()
    indexer = list(idx)
    indexer.insert(ax, np.s_[:])
    indexer = tuple(indexer)
    di = np.abs(diffs[ax][indexer])
    gl = gl1[indexer]
    w = double_well(u.values[indexer])

    x = np.arange(u.n) * u.h_grid
    window = (x >= s - 1e-12 * u.L) & (x <= t + 1e-12 * u.L)
    active = (gl > delta_grad) & window
    alpha = params.alpha
    ratio = np.zeros_like(gl)
    ratio[active] = di[active] / gl[active]
    dens = 3.0 * alpha * di * gl + (3.0 / alpha) * w * ratio
    return float(np.sum(dens[active]) * u.h_grid)


def directional_g(u: PeriodicField, i: int, x_perp, params: ModelParams,
                  delta_grad: float | None = None, tol: float = 1e-7
                  ) -> float:
    """Slice coercivity term:
    Mbar^i(0, L) * C_tau  minus the slice 1D nonlocal term.

    Nonnegative, zero exactly on constant slices.
    """
    from .field import slice as _field_slice
    mbar = directional_mm(u, i, x_perp, params, delta_grad=delta_grad)
    prof = _field_slice(u, i, x_perp)
    khat = (_axis_marginal(u, params, tol) if u.dims > 1
            else _kernel.periodized_kernel_grid(u.L, u.n, params, tol=tol))
    g = prof.g
    nl = _slice_nonlocal_sums(g, khat, 0, u.h_grid, 1)
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
               trunc_radius: float | None = None, tol: float = 1e-7
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


def flat_penalty(u: PeriodicField, params: ModelParams,
                 delta_grad: float | None = None) -> float:
    """(3/alpha) sum W(u) vol over the flat set {||grad u||_1 <= delta_grad}."""
    if delta_grad is None:
        delta_grad = default_delta_grad(u)
    gl1 = _grad_l1(gradient(u))
    flat = gl1 <= delta_grad
    vol = u.h_grid ** u.dims
    return float((3.0 / params.alpha)
                 * np.sum(double_well(u.values[flat])) * vol)


def lower_bound_report(u: PeriodicField, params: ModelParams,
                       delta_grad: float | None = None,
                       trunc_radius: float | None = None,
                       tol: float = 1e-7) -> DecompositionReport:
    """Assemble the directional lower bound and its slack against the full
    energy, with a single shared kernel grid and gradient threshold."""
    if u.dims != params.d:
        raise ValueError("field dimension does not match params.d")
    if delta_grad is None:
        delta_grad = default_delta_grad(u)
    d, n = u.dims, u.n
    alpha = params.alpha
    vol = u.h_grid ** d
    diffs = gradient(u)
    gl1 = _grad_l1(diffs)
    active = gl1 > delta_grad
    w = double_well(u.values)
    ctau = _kernel.c_tau(params)

    khat = (_axis_marginal(u, params, tol) if d > 1
            else _kernel.periodized_kernel_grid(u.L, u.n, params, tol=tol))

    mbars, gbars, crosses = [], [], []
    for ax in range(d):
        di = np.abs(diffs[ax])
        ratio = np.zeros_like(gl1)
        ratio[active] = di[active] / gl1[active]
        mbar = float(np.sum((3.0 * alpha * di * gl1
                             + (3.0 / alpha) * w * ratio)[active]) * vol)
        axis_nl = _slice_nonlocal_sums(u.values, khat, ax, u.h_grid, d)
        gbar = mbar * ctau - axis_nl
        cross = (cross_term(u, ax + 1, params, tol=tol,
                            trunc_radius=trunc_radius) if d > 1 else 0.0)
        mbars.append(mbar)
        gbars.append(gbar)
        crosses.append(cross)

    wcal = float((3.0 / alpha) * np.sum(w[~active]) * vol)
    lower = (sum(-m + g for m, g in zip(mbars, gbars)) + sum(crosses)
             + wcal) / u.L ** d
    full = total_energy(u, params, tol=tol).total
    return DecompositionReport(
        mbar=tuple(mbars), gbar=tuple(gbars), cross=tuple(crosses),
        wcal=wcal, lower_bound=lower, full_energy=full, slack=full - lower)


def slice_tables(u: PeriodicField, params: ModelParams,
                 delta_grad: float | None = None, tol: float = 1e-7
                 ) -> list[tuple[int, int, float, float]]:
    """Rows (i, slice_index, mbar, gbar) for every direction and slice line
    (slice lines enumerated in row-major order over the perpendicular grid).
    """
    rows = []
    for i in range(1, u.dims + 1):
        n_perp = u.n ** (u.dims - 1)
        for flat_idx in range(n_perp):
            idx = np.unravel_index(flat_idx, (u.n,) * (u.dims - 1)) \
                if u.dims > 1 else ()
            mbar = directional_mm(u, i, idx, params, delta_grad=delta_grad)
            gbar = directional_g(u, i, idx, params, delta_grad=delta_grad,
                                 tol=tol)
            rows.append((i, flat_idx, mbar, gbar))
    return rows


def write_slice_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("i,slice_index,mbar,gbar\n")
        for i, k, m, g in rows:
            fh.write(f"{i},{k},{m!r},{g!r}\n")


def positivity_identity_check(u: PeriodicField, j: int, axis_subset,
                              trunc_radius: float | None = None,
                              params: ModelParams | None = None,
                              tol: float = 1e-7
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
    if params is None:
        raise ValueError("params required")
    ax = j - 1
    subset = [a - 1 for a in np.atleast_1d(axis_subset).astype(int)]
    if ax in subset:
        raise ValueError("j must not belong to axis_subset")
    if any(not (0 <= a < u.dims) for a in subset + [ax]):
        raise IndexError("axis out of range")
    kgrid = _kernel.periodized_kernel_grid(u.L, u.n, params, tol=tol)
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
