"""Directional lower-bound decomposition of the energy.

The energy splits, direction by direction, into a directional interfacial
term Mbar^i, a slice coercivity term Gbar^i, a nonnegative cross term I^i
penalizing genuinely multi-directional behaviour, and a flat-set
double-well penalty Wcal:

    F(u) >= (1/L^d) [ sum_i ( -Mbar^i + Gbar^i + I^i ) + Wcal ],

with equality for one-dimensional fields.  Gbar^i >= 0 holds in the
continuum, but on a lattice that does not resolve the transition layer it
can fail: a one-cell jump costs Mbar = 3 alpha / dx against 1 for a
continuum transition, so on binary slices Gbar^i < 0 once dx >~ 3 alpha,
and ``lower_bound_report`` records the fraction of such slices per axis.

Every nonlocal term reads the spectrum S of the one cached periodized
kernel table of (L, n, params), truncated by the kernel module's rule
(``kernel_operator``), by Parseval over the rFFT U of u.  The slice
nonlocal term along axis i is the pair form along its lines against the
table summed over the other axes, whose spectrum is S(k_i, 0_perp); the
full nonlocal term is the pair form against S; the cross term I^i weighs
|U_k|^2 by

    m_i(k) = S(0) + S(k) - S(k_i, 0_perp) - S(0_i, k_perp)
           = sum_lam K(lam) (1 - cos k_i lam_i) (1 - cos k_perp . lam_perp),

with S(0) the sum of the nonzero lags.  So d I^i / vol^2 is the slice
form along axis i plus the pair form over the hyperplane normal to it
(against the table summed over axis i) minus the full form, exactly on the
lattice.  In d = 2 that hyperplane is the other axis, the cross terms sum
to the slice forms minus the full form, and the slack of the bound reduces
to Wcal (C_tau - 2) / L^d up to rounding.  In d >= 3 the slack also holds
((d - 1) sum_i slice_i - sum_i hyperplane_i) vol^2 / (d L^d), which does
not vanish: the iid fields of ``stripes verify-decomposition -d 3 -p 5
-n 8`` and ``-d 4 -p 6 -n 4`` have Wcal = 0 and slack 1.70 and 0.73.

All discrete gradients are forward differences; the partition between the
active set {||grad u||_1 > delta_grad} (feeding Mbar) and the flat set
(feeding Wcal) uses one shared threshold, ``default_delta_grad(u)``, so no
double-well mass is dropped or double counted.  One pass over the field
gives Mbar^i and Gbar^i of every grid line and Wcal (``_slice_terms``);
the report and ``directional_mm`` read it.  The report computes each
intermediate once: the slice pass's forward differences (their 1-norm)
and W(u) also give the full energy's M_alpha, its rFFT along the last
axis is also the first stage of the full rFFT U, which the FFTs along the
other axes complete (``kernel.rfft_from_last_axis``), and |U|^2 serves
the d cross terms and the full nonlocal term.  The Parseval weights and
the multipliers m_i are constants of the cached kernel operator, so a
report builds none of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernel as _kernel
from .energy import _Held, _well, total_energy
from .field import PeriodicField, gradient, line_index
from .model import ModelParams


def default_delta_grad(u: PeriodicField) -> float:
    """Active-gradient threshold: effectively exact zero detection."""
    return 1e-12 / u.h_grid


@dataclass(frozen=True)
class DecompositionReport:
    mbar: tuple[float, ...]
    gbar: tuple[float, ...]
    cross: tuple[float, ...]
    wcal: float
    lower_bound: float
    full_energy: float
    slack: float
    gbar_min: tuple[float, ...]                 # per axis, over its slices
    gbar_negative_fraction: tuple[float, ...]   # per axis, slices Gbar < 0


@dataclass(frozen=True)
class _SliceTerms:
    """Mbar^i and Gbar^i of every grid line along each axis i, one array
    of shape (n,) * (d - 1) per axis indexed by the perpendicular grid,
    and Wcal; with the intermediates the full energy also reads: the
    1-norm ``norm`` of the forward differences, W(u) as ``well``, and the
    rFFT ``last`` of u along its last axis."""
    mbar: list[np.ndarray]
    gbar: list[np.ndarray]
    wcal: float
    norm: np.ndarray
    well: np.ndarray
    last: np.ndarray


def _slice_terms(u: PeriodicField, params: ModelParams) -> _SliceTerms:
    """One pass over u.  The forward differences, the active set
    {||grad u||_1 > delta_grad} and W(u) are computed once.  Per axis i,
    Mbar^i of a line is the sum along it over the active set of

        3 alpha |d_i u| ||grad u||_1 + (3/alpha) W(u) |d_i u| / ||grad u||_1,

    and Gbar^i = Mbar^i C_tau minus the line's 1D nonlocal term against
    the kernel table summed over the other axes, which one rFFT along
    axis i gives for every line at once.  Wcal is
    (3/alpha) sum W(u) vol over the flat set.  The 1-norm of the
    differences, W(u) and the rFFT along the last axis are kept for the
    full energy of ``lower_bound_report``."""
    if u.dims != params.d:
        raise ValueError("field dimension does not match params.d")
    h, alpha, v = u.h_grid, params.alpha, u.values
    diffs = [np.abs(g) for g in gradient(u)]
    gl1 = sum(diffs)
    active = gl1 > default_delta_grad(u)
    w = _well(v)
    # the Mbar density per unit |d_i u| on the active set
    dens = 3.0 * alpha * gl1 + (3.0 / alpha) * np.divide(
        w, gl1, out=np.zeros_like(gl1), where=active)
    op = _kernel.kernel_operator(u.L, u.n, params)
    ctau = _kernel.c_tau(params)
    mbar = [np.sum(dens * di, axis=ax, where=active) * h
            for ax, di in enumerate(diffs)]
    lines = [np.fft.rfft(v, axis=ax) for ax in range(u.dims)]
    gbar = [m * ctau - op.pair_sum_rfft(f, ax) * h ** (u.dims + 1)
            for ax, (m, f) in enumerate(zip(mbar, lines))]
    wcal = float((3.0 / alpha) * np.sum(w[~active]) * h ** u.dims)
    return _SliceTerms(mbar, gbar, wcal, gl1, w, lines[-1])


def directional_mm(u: PeriodicField, i: int, x_perp, params: ModelParams
                   ) -> float:
    """Directional interfacial density along the slice through ``x_perp``:

    integral over the slice [0, L) on the active set of
        3 alpha |d_i u| ||grad u||_1 + (3/alpha) W(u) |d_i u| / ||grad u||_1.
    """
    ax, perp = line_index(u, i, x_perp)
    return float(_slice_terms(u, params).mbar[ax][perp])


def cross_term(u: PeriodicField, i: int, params: ModelParams,
               f: _Held | None = None) -> float:
    """Nonnegative cross term

        I^i = (1/d) int_{zeta_i > 0} int [ (u(x + zeta_i e_i) - u(x))
              - (u(x + zeta) - u(x + zeta_i^perp)) ]^2 K_tau(zeta) dx dzeta,

    against the periodized kernel on the torus: with U the rFFT of u, S
    the spectrum of the kernel table and N = n^d,

        I^i = (vol^2 / d) (2 / N) sum_k w_k |U_k|^2 m_i(k),

    w_k the rFFT half-spectrum weights and m_i(k) = S(0) + S(k)
    - S(k_i, 0_perp) - S(0_i, k_perp) >= 0 (see the module docstring),
    clipped at 0 since a negative value can only be rounding.  Written
    with S(0) for the sum of the table's nonzero lags, m_i is exactly 0
    where k_i = 0 or k_perp = 0, where a field constant along e_i or along
    its normal hyperplane has all its power: its I^i is only the FFT's
    rounding of the other modes.  In d = 1, m_1 vanishes and so does I^1.
    The multipliers and w_k are constants of the cached kernel operator
    (``cross_multipliers``, ``half_weights``).  ``f``, when the caller
    holds them, is the ``_Held`` intermediates of ``lower_bound_report``,
    whose |U|^2 is read and U not taken.
    """
    ax = i - 1
    if not (0 <= ax < u.dims):
        raise IndexError(f"axis {i} out of range for dims={u.dims}")
    if u.dims == 1:
        return 0.0
    op = _kernel.kernel_operator(u.L, u.n, params)
    power = (_kernel.spectral_power(op.rfft(u.values)) if f is None
             else f.power)
    total = float(np.sum(power * op.cross_multipliers[ax]
                         * op.half_weights))
    return total * 2.0 / u.values.size * u.h_grid ** (2 * u.dims) / u.dims


def lower_bound_report(u: PeriodicField, params: ModelParams
                       ) -> DecompositionReport:
    """Assemble the directional lower bound and its slack against the full
    energy from one slice pass, with a single shared kernel grid and
    gradient threshold.  Each intermediate is computed once: the slice
    pass's 1-norm of the forward differences and W(u) also give the full
    energy's M_alpha, its rFFT along the last axis is also the first stage
    of the full rFFT U of u, and |U|^2 serves every cross term and the full
    nonlocal term; ``cross_term`` and ``total_energy`` read them as
    ``_Held`` in place of U."""
    terms = _slice_terms(u, params)
    f = _kernel.rfft_from_last_axis(terms.last)
    held = _Held(terms.norm, terms.well, _kernel.spectral_power(f))
    d = u.dims
    perp_vol = u.h_grid ** (d - 1)
    mbars = [float(np.sum(m)) * perp_vol for m in terms.mbar]
    gbars = [float(np.sum(g)) * perp_vol for g in terms.gbar]
    crosses = [cross_term(u, ax + 1, params, held) for ax in range(d)]
    lower = (sum(-m + g for m, g in zip(mbars, gbars)) + sum(crosses)
             + terms.wcal) / u.L ** d
    full = total_energy(u, params, held).total
    return DecompositionReport(
        mbar=tuple(mbars), gbar=tuple(gbars), cross=tuple(crosses),
        wcal=terms.wcal, lower_bound=lower, full_energy=full,
        slack=full - lower,
        gbar_min=tuple(float(np.min(g)) for g in terms.gbar),
        gbar_negative_fraction=tuple(float(np.mean(g < 0.0))
                                     for g in terms.gbar))


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
    kgrid = _kernel.periodized_kernel_grid(u.L, u.n, params)
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
