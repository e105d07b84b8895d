"""Directional lower-bound decomposition of the energy.

The energy splits, direction by direction, into a directional interfacial
term Mbar^i, a slice coercivity term Gbar^i, a nonnegative cross term I^i
penalizing genuinely multi-directional behaviour, and a flat-set
double-well penalty Wcal:

    F(u) >= (1/L^d) [ sum_i ( -Mbar^i + Gbar^i + I^i ) + Wcal ],

with equality for one-dimensional fields.  Gbar^i >= 0 holds in the
continuum, but on a lattice that does not resolve the transition layer it
can fail: on binary slices Gbar^i < 0 once dx >~ 3 alpha (see
``directional_g``), and ``lower_bound_report`` records the fraction of
such slices per axis.  On the lattice the identity behind the cross term
is exact: summing the axis-slice nonlocal terms (against the lattice
marginal of the periodized kernel) overshoots the full nonlocal term by
exactly the sum of the cross terms, so the slack of the bound reduces to
Wcal (C_tau - 2) >= 0 up to rounding.  The cross term is
the torus term, a sum over every lag against the periodized kernel.

All discrete gradients are forward differences; the partition between the
active set {||grad u||_1 > delta_grad} (feeding Mbar) and the flat set
(feeding Wcal) uses one shared threshold, ``default_delta_grad(u)``, so no
double-well mass is dropped or double counted.  One pass over the field
gives Mbar^i and Gbar^i of every grid line and Wcal; the report, the slice
tables and the single-slice terms all read it.  Every term reads the one
cached periodized kernel grid of (L, n, params), truncated by the kernel
module's rule, so the cross term, the slice terms and the full energy
share a table.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import kernel as _kernel
from .energy import total_energy
from .field import PeriodicField, gradient, line_index, roll
from .model import ModelParams


def default_delta_grad(u: PeriodicField) -> float:
    """Active-gradient threshold: effectively exact zero detection."""
    return 1e-12 / u.h_grid


def _axis_operator(u: PeriodicField, params: ModelParams
                   ) -> _kernel.PeriodicKernelOperator:
    """Operator of the lattice marginal of the periodized kernel grid along
    one axis (the same on every axis, by symmetry); cached per
    (L, n, params).

    This is the rectangle-rule counterpart of the continuum marginal; using
    it (rather than the closed-form marginal) makes the cross-term identity
    exact on the lattice.
    """
    return _cached_axis_operator(float(u.L), int(u.n), params)


@lru_cache(maxsize=32)
def _cached_axis_operator(L: float, n: int, params: ModelParams
                          ) -> _kernel.PeriodicKernelOperator:
    kgrid = _kernel.periodized_kernel_grid(L, n, params)
    return _kernel.PeriodicKernelOperator(
        _kernel.lattice_marginal(kgrid, 0, L / n))


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

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class _SliceTerms:
    """Mbar^i and Gbar^i of every grid line along each axis i, one array
    of shape (n,) * (d - 1) per axis indexed by the perpendicular grid,
    and Wcal."""
    mbar: list[np.ndarray]
    gbar: list[np.ndarray]
    wcal: float


def _slice_terms(u: PeriodicField, params: ModelParams) -> _SliceTerms:
    """One pass over u.  The forward differences, the active set
    {||grad u||_1 > delta_grad} and W(u) are computed once.  Per axis i,
    Mbar^i of a line is the sum along it over the active set of

        3 alpha |d_i u| ||grad u||_1 + (3/alpha) W(u) |d_i u| / ||grad u||_1,

    and Gbar^i = Mbar^i C_tau minus the line's 1D nonlocal term, which one
    rFFT along axis i gives for every line at once.  Wcal is
    (3/alpha) sum W(u) vol over the flat set."""
    if u.dims != params.d:
        raise ValueError("field dimension does not match params.d")
    h, alpha, v = u.h_grid, params.alpha, u.values
    diffs = [np.abs(g) for g in gradient(u)]
    gl1 = sum(diffs)
    active = gl1 > default_delta_grad(u)
    w = v * v * (1.0 - v) * (1.0 - v)      # double_well on [0, 1]
    # the Mbar density per unit |d_i u| on the active set
    dens = 3.0 * alpha * gl1 + (3.0 / alpha) * np.divide(
        w, gl1, out=np.zeros_like(gl1), where=active)
    op = _axis_operator(u, params)
    ctau = _kernel.c_tau(params)
    mbar = [np.sum(dens * di, axis=ax, where=active) * h
            for ax, di in enumerate(diffs)]
    gbar = [m * ctau - op.pair_sum(v, axis=ax) * h * h
            for ax, m in enumerate(mbar)]
    wcal = float((3.0 / alpha) * np.sum(w[~active]) * h ** u.dims)
    return _SliceTerms(mbar, gbar, wcal)


def directional_mm(u: PeriodicField, i: int, x_perp, params: ModelParams
                   ) -> float:
    """Directional interfacial density along the slice through ``x_perp``:

    integral over the slice [0, L) on the active set of
        3 alpha |d_i u| ||grad u||_1 + (3/alpha) W(u) |d_i u| / ||grad u||_1.
    """
    ax, perp = line_index(u, i, x_perp)
    return float(_slice_terms(u, params).mbar[ax][perp])


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
    ax, perp = line_index(u, i, x_perp)
    return float(_slice_terms(u, params).gbar[ax][perp])


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
    c_refl = roll(np.flip(corr, axis=ax), 1, ax)
    table = 4.0 * (corr.flat[0] - c_axis - c_perp) + 2.0 * (corr + c_refl)
    return np.maximum(table, 0.0)


def cross_term(u: PeriodicField, i: int, params: ModelParams) -> float:
    """Nonnegative cross term

        I^i = (1/d) int_{zeta_i > 0} int [ (u(x + zeta_i e_i) - u(x))
              - (u(x + zeta) - u(x + zeta_i^perp)) ]^2 K_tau(zeta) dx dzeta.

    For a torus lag lam = (lam_i e_i, lam_perp) the sum over x of the
    squared bracket is, with C(lam) = sum_x u(x) u(x + lam) from one
    rfftn/irfftn pair (of u minus its mean: B_i is unchanged and rounding
    stays relative to the variation of u) and R_i the flip of component i,

        B_i(lam) = 4 C(0) - 4 C(lam_i e_i) - 4 C(lam_perp) + 2 C(lam)
                   + 2 C(R_i lam) >= 0,

    and I^i = sum_lam K(lam) B_i(lam) vol^2 / (2d) against the periodized
    kernel: the form entering the exact lattice identity.
    """
    ax = i - 1
    if not (0 <= ax < u.dims):
        raise IndexError(f"axis {i} out of range for dims={u.dims}")
    table = _cross_table(u.values, ax)
    kgrid = _kernel.periodized_kernel_grid(u.L, u.n, params)
    return float(np.sum(kgrid * table)) * u.h_grid ** (2 * u.dims) \
        / (2.0 * u.dims)


def flat_penalty(u: PeriodicField, params: ModelParams) -> float:
    """(3/alpha) sum W(u) vol over the flat set {||grad u||_1 <= delta_grad},
    with delta_grad = ``default_delta_grad(u)``."""
    return _slice_terms(u, params).wcal


def lower_bound_report(u: PeriodicField, params: ModelParams
                       ) -> DecompositionReport:
    """Assemble the directional lower bound and its slack against the full
    energy from one slice pass, with a single shared kernel grid and
    gradient threshold."""
    terms = _slice_terms(u, params)
    d = u.dims
    perp_vol = u.h_grid ** (d - 1)
    mbars = [float(np.sum(m)) * perp_vol for m in terms.mbar]
    gbars = [float(np.sum(g)) * perp_vol for g in terms.gbar]
    crosses = [cross_term(u, ax + 1, params) if d > 1 else 0.0
               for ax in range(d)]
    lower = (sum(-m + g for m, g in zip(mbars, gbars)) + sum(crosses)
             + terms.wcal) / u.L ** d
    full = total_energy(u, params).total
    return DecompositionReport(
        mbar=tuple(mbars), gbar=tuple(gbars), cross=tuple(crosses),
        wcal=terms.wcal, lower_bound=lower, full_energy=full,
        slack=full - lower,
        gbar_min=tuple(float(np.min(g)) for g in terms.gbar),
        gbar_negative_fraction=tuple(float(np.mean(g < 0.0))
                                     for g in terms.gbar))


def slice_tables(u: PeriodicField, params: ModelParams
                 ) -> list[tuple[int, int, float, float]]:
    """Rows (i, slice_index, mbar, gbar) for every direction and slice line
    (slice lines enumerated in row-major order over the perpendicular grid).
    """
    terms = _slice_terms(u, params)
    return [(ax + 1, k, float(m), float(g))
            for ax in range(u.dims)
            for k, (m, g) in enumerate(zip(terms.mbar[ax].ravel(),
                                           terms.gbar[ax].ravel()))]


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
