"""The rescaled energy, the unscaled energy, their exact scaling relation,
and the sharp-interface stripe energy.

Rescaled energy per unit volume on the torus [0, L)^d:

    F(u) = (1/L^d) [ M_alpha(u) (C_tau - 1) - NL(u) ],
    M_alpha(u) = 3 alpha int ||grad u||_1^2 + (3/alpha) int W(u),
    NL(u) = int int |u(x + zeta) - u(x)|^2 K_tau(zeta) dx dzeta,

with alpha = eps tau^(1/beta) and C_tau the kernel first moment.  The
unscaled energy uses the tau = 1 kernel with coupling J on the gradient
part; the two are related by an exact change of variables implemented in
``rescaling_identity_check``.

The nonlocal term is the pair form of the certified periodized kernel,
evaluated from one fast Fourier transform of the field by
``kernel.PeriodicKernelOperator``.  ``_FieldObjective`` is the one
evaluation of the discrete energy and of its gradient (with the smoothed
1-norm) on raw arrays: it resolves C_tau, alpha, the cell volume and the
kernel operator once per (params, L, n), so a descent that evaluates many
trial fields builds no field object and looks up no cache per trial.
``total_energy``, ``nonlocal_energy`` and ``flow.energy_gradient`` are
its wrappers for ``PeriodicField`` input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import kernel as _kernel
from .field import PeriodicField
from .model import ModelParams
from .solvers import scan_golden


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per unit volume, split as total = mm_term - nonlocal_term.

    Both stored terms include their prefactors: mm_term is
    M_alpha(u) (C_tau - 1) / L^d and nonlocal_term is NL(u) / L^d.
    """

    mm_term: float
    nonlocal_term: float
    total: float
    n: int
    L: float
    params: ModelParams

    def to_json(self) -> str:
        return json.dumps({
            "mm_term": self.mm_term,
            "nonlocal_term": self.nonlocal_term,
            "total": self.total,
            "n": self.n,
            "L": self.L,
            "params": self.params.to_dict(),
        })


def _roll(v: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """``np.roll(v, shift, axis=axis)`` as one concatenate of two basic
    slices: the same array, without np.roll's per-call overhead."""
    cut = v.shape[axis] - shift % v.shape[axis]
    lead = (slice(None),) * axis
    return np.concatenate((v[lead + (slice(cut, None),)],
                           v[lead + (slice(None, cut),)]), axis=axis)


def _modica_mortola(v: np.ndarray, dx: float, alpha: float) -> float:
    """M_alpha of samples v in [0, 1] with spacing dx (no checks)."""
    vol = dx ** v.ndim
    grad_l1_sq = sum(np.abs((_roll(v, -1, ax) - v) / dx)
                     for ax in range(v.ndim)) ** 2
    well = v * v * (1.0 - v) * (1.0 - v)    # double_well on [0, 1]
    return float(3.0 * alpha * np.sum(grad_l1_sq) * vol
                 + (3.0 / alpha) * np.sum(well) * vol)


class _FieldObjective:
    """The discrete energy F of n^d samples of an L-periodic field with
    values in [0, 1], and its gradient with the smoothed 1-norm.  Every
    evaluation of F or of its gradient in this package goes through it;
    the arrays it takes are not checked."""

    def __init__(self, params: ModelParams, L: float, n: int,
                 tol: float = 1e-7, shells: int | None = None):
        d = self.d = int(params.d)
        self.op = _kernel.kernel_operator(L, n, params, tol=tol,
                                          shells=shells)
        self.alpha = alpha = params.alpha
        self.c1 = _kernel.c_tau(params) - 1.0
        self.dx = dx = L / n
        self.vol = vol = dx ** d
        self.vol2 = dx ** (2 * d)
        self.vol_inv = 1.0 / L ** d
        # prefactors of the three gradient terms
        pref = self.c1 / L ** d
        self.well_pref = pref * (3.0 / alpha)
        self.flux_pref = pref * 6.0 * alpha * vol / dx
        self.pair_pref = 4.0 * vol * vol / L ** d

    @classmethod
    def of(cls, u: PeriodicField, params: ModelParams, tol: float = 1e-7,
           shells: int | None = None) -> "_FieldObjective":
        """The objective on the grid of ``u``."""
        if u.dims != params.d:
            raise ValueError("field dimension does not match params.d")
        return cls(params, u.L, u.n, tol=tol, shells=shells)

    def nonlocal_sum(self, v: np.ndarray) -> float:
        """NL(v), the lattice pair form of the periodized kernel."""
        return self.op.pair_sum(v) * self.vol2

    def split(self, v: np.ndarray) -> tuple[float, float]:
        """(mm_term, nonlocal_term) of ``EnergyBreakdown``."""
        mm = _modica_mortola(v, self.dx, self.alpha) * self.c1 * self.vol_inv
        return mm, self.nonlocal_sum(v) * self.vol_inv

    def energy(self, v: np.ndarray) -> float:
        mm, nl = self.split(v)
        return mm - nl

    def grad(self, v: np.ndarray, kappa: float) -> np.ndarray:
        """dF/dv_j with the 1-norm of the forward differences D_i smoothed
        to sum_i sqrt(D_i^2 + kappa^2).  The adjoint of D_i is the backward
        difference, so this is the exact gradient of the smoothed discrete
        energy (the nonlocal part is exact, no smoothing)."""
        dx = self.dx
        diffs = [(_roll(v, -1, ax) - v) / dx for ax in range(self.d)]
        roots = [np.sqrt(t * t + kappa * kappa) for t in diffs]
        s = sum(roots)
        well_prime = 2.0 * v * (1.0 - v) * (1.0 - 2.0 * v)   # W' on [0, 1]
        grad = self.well_pref * well_prime * self.vol
        for ax in range(self.d):
            flux = s * diffs[ax] / roots[ax]
            grad += self.flux_pref * (_roll(flux, 1, ax) - flux)
        grad -= self.pair_pref * (self.op.ksum * v - self.op.conv(v))
        return grad


def modica_mortola(u: PeriodicField, alpha: float) -> float:
    """3 alpha sum ||grad u||_1^2 vol + (3/alpha) sum W(u) vol over one cell."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if u.n < 2:
        raise ValueError("n must be >= 2")
    return _modica_mortola(u.values, u.h_grid, alpha)


def nonlocal_energy(u: PeriodicField, params: ModelParams,
                    tol: float = 1e-7, shells: int | None = None) -> float:
    """int int |u(x+zeta) - u(x)|^2 K_tau(zeta) dx dzeta on the lattice."""
    return _FieldObjective.of(u, params, tol, shells).nonlocal_sum(u.values)


def total_energy(u: PeriodicField, params: ModelParams,
                 tol: float = 1e-7, shells: int | None = None
                 ) -> EnergyBreakdown:
    """Rescaled energy per unit volume with its two-term breakdown."""
    mm, nl = _FieldObjective.of(u, params, tol, shells).split(u.values)
    return EnergyBreakdown(mm_term=mm, nonlocal_term=nl, total=mm - nl,
                           n=u.n, L=u.L, params=params)


def unscaled_energy(u: PeriodicField, J: float, eps: float, L: float | None = None,
                    *, p: float, tol: float = 1e-7, shells: int | None = None
                    ) -> float:
    """Energy with the tau = 1 kernel and coupling J on the gradient part:
    (1/L^d) [ J M_eps(u) - NL_1(u) ]."""
    if J <= 0:
        raise ValueError("J must be positive")
    if L is not None and abs(L - u.L) > 1e-12 * u.L:
        raise ValueError("L does not match the field period")
    params1 = ModelParams(d=u.dims, p=p, tau=1.0, eps=eps, L=u.L)
    vol_inv = 1.0 / u.L ** u.dims
    mm = modica_mortola(u, eps)
    nl = nonlocal_energy(u, params1, tol=tol, shells=shells)
    return float(vol_inv * (J * mm - nl))


def rescaling_identity_check(u: PeriodicField, params: ModelParams,
                             tol: float = 1e-7
                             ) -> tuple[float, float, float]:
    """Evaluate the unscaled energy and the rescaled energy on corresponding
    grids and return (lhs, rhs, gap).

    The field ``u`` is read on the rescaled torus [0, params.L)^d; the same
    sample values on the stretched torus of period L = tau^(-1/beta) params.L
    define the unscaled configuration.  With coupling J = J_c - tau and both
    periodized kernels built from the same number of lattice shells the two
    sides agree to rounding error.
    """
    a = params.kernel_scale
    L_big = u.L / a
    tau_pow = params.tau ** (1.0 + 1.0 / params.beta)
    params1 = ModelParams(d=u.dims, p=params.p, tau=1.0, eps=params.eps,
                          L=L_big)
    m = max(_kernel.kernel_shells_needed(u.L, params, tol),
            _kernel.kernel_shells_needed(L_big, params1, tol))
    J = _kernel.j_c(params) - params.tau
    u_big = PeriodicField(u.dims, u.n, L_big, u.values)
    lhs = unscaled_energy(u_big, J, params.eps, p=params.p, shells=m)
    rhs = tau_pow * total_energy(u, params, shells=m).total
    return lhs, rhs, lhs - rhs


# ---------------------------------------------------------------------------
# sharp-interface stripe energy
# ---------------------------------------------------------------------------

def _segment_linear_moment(z0: float, z1: float, c0: float, c1: float,
                           a: float, q: float) -> float:
    """int_{z0}^{z1} (c0 + c1 z) (z + a)^(-q) dz in closed form."""
    def I0(z):
        return -((z + a) ** (1.0 - q)) / (q - 1.0)

    def I1(z):
        return (-((z + a) ** (2.0 - q)) / (q - 2.0)
                + a * (z + a) ** (1.0 - q) / (q - 1.0))

    return c0 * (I0(z1) - I0(z0)) + c1 * (I1(z1) - I1(z0))


def _square_wave_correlation_integral(h: float, params: ModelParams,
                                      rel_tol: float = 1e-13) -> float:
    """2 int_0^inf t(z) Khat_tau(z) dz where t is the triangle wave
    t(z) = z/h on [0, h], (2h - z)/h on [h, 2h], extended 2h-periodically;
    t is the x-average of |chi(x+z) - chi(x)|^2 for width-h stripes."""
    a = params.kernel_scale
    q = params.q
    c = _kernel.marginal_constant(params.d, params.p)
    total = 0.0
    k = 0
    while True:
        z0 = 2.0 * k * h
        # rising piece: t = (z - 2kh)/h; falling piece: t = (2(k+1)h - z)/h
        piece = _segment_linear_moment(z0, z0 + h, -z0 / h, 1.0 / h, a, q)
        piece += _segment_linear_moment(z0 + h, z0 + 2.0 * h,
                                        (z0 + 2.0 * h) / h, -1.0 / h, a, q)
        total += piece
        z_next = z0 + 2.0 * h
        # Beyond z_next replace t by its mean 1/2: since t - 1/2 integrates
        # to zero over each period and the kernel oscillation telescopes,
        # the replacement error is at most Khat(z_next) * h / 2.
        half_tail = 0.5 * (z_next + a) ** (1.0 - q) / (q - 1.0)
        err = (z_next + a) ** (-q) * h / 2.0
        if err <= rel_tol * max(abs(total + half_tail), 1e-300) and k >= 2:
            total += half_tail
            break
        k += 1
        if k > 10 ** 6:
            raise RuntimeError("correlation integral failed to converge")
    return 2.0 * c * total


def sharp_stripe_energy(h: float, params: ModelParams) -> float:
    """Per-unit-volume sharp-interface energy of width-h stripes:
    (C_tau - 1)/h minus the square-wave nonlocal term."""
    if h <= 0:
        raise ValueError("h must be positive")
    c = _kernel.c_tau(params)
    return (c - 1.0) / h - _square_wave_correlation_integral(h, params)


def optimal_sharp_period(params: ModelParams,
                         h_range: tuple[float, float] = (1e-2, 1e2),
                         grid: int = 12, tol: float = 1e-3
                         ) -> tuple[float, float]:
    """Minimize the sharp stripe energy over the half-period h.

    A logarithmic scan over ``grid`` points brackets the minimum; golden
    section refines it to relative tolerance ``tol``.
    """
    return scan_golden(lambda h: sharp_stripe_energy(h, params),
                       *h_range, grid, tol)
