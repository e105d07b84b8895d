"""The rescaled energy, the unscaled energy, their exact scaling relation,
and the sharp-interface stripe energy.

Rescaled energy per unit volume on the torus [0, L)^d:

    F(u) = (1/L^d) [ M_alpha(u) (C_tau - 1) - NL(u) ],
    M_alpha(u) = 3 alpha int ||grad u||_1^2 + (3/alpha) int W(u),
    NL(u) = int int |u(x + zeta) - u(x)|^2 K_tau(zeta) dx dzeta,

with alpha = eps tau^(1/beta) and C_tau the kernel first moment.  The
unscaled energy uses the tau = 1 kernel with coupling J on the gradient
part; with J = J_c - tau it equals tau^(1 + 1/beta) times the rescaled
energy of the same samples on the torus stretched by tau^(-1/beta), an
exact change of variables that the test suite checks.

The nonlocal term is the pair form of the certified periodized kernel,
evaluated from one fast Fourier transform of the field by
``kernel.PeriodicKernelOperator``; the kernel module fixes its truncation,
so no energy here takes a tolerance.  ``_FieldObjective`` is the one
evaluation of the discrete energy and of its gradient (with the smoothed
1-norm) on raw arrays: it resolves C_tau, alpha, the cell volume and the
kernel operator once per (params, L, n), so a descent that evaluates many
trial fields builds no field object and looks up no cache per trial.  It
also transforms each field once: the energy of an array keeps its
forward differences and rFFT, which the gradient of that same array (the
accepted trial) reads, and the gradient keeps the iterate's differences,
W' and nonlocal gradient for ``slope_bound`` and for the gradient at the
next kappa, with every result equal bit for bit to evaluating afresh.
This state lives on the objective, which each flow builds for itself,
not on the shared cached kernel operator, and an evaluated array must
not be mutated in place.  The energy builds its terms (the squared
1-norm of the differences and the double well) in place, in the
operation order of the plain expressions, so its value is theirs bit for
bit; in-place work touches only temporaries that the evaluation
allocated itself, never the field, the slots with their differences,
rFFT and nonlocal gradient, or an array that ``grad`` returned.  The
differences are ``field.differences``, the package's one forward
difference.
``total_energy``, ``nonlocal_energy`` and ``flow.energy_gradient`` are
its wrappers for ``PeriodicField`` input; ``total_energy`` also takes
the 1-norm, double well and rFFT power that the slicing report already
holds (``_Held``), and reads both terms from them.  Its ``slope_bound``
is the flow's line-search certificate: a lower bound on the exact energy
along a clipped descent path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernel as _kernel
from .field import PeriodicField, differences, roll
from .model import ModelParams, _well, _well_prime
from .solvers import scan_golden

# log-spaced scan points of the sharp period search
SHARP_GRID = 12


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per unit volume, split as total = mm_term - nonlocal_term.

    Both stored terms include their prefactors: mm_term is
    M_alpha(u) (C_tau - 1) / L^d and nonlocal_term is NL(u) / L^d.
    """

    mm_term: float
    nonlocal_term: float
    total: float


class _Held(NamedTuple):
    """Intermediates of one field's values v that a caller already holds,
    which ``total_energy`` and ``decomposition.cross_term`` take in place
    of v's rFFT V and only read: the 1-norm ``norm`` = sum_i |D_i|
    of the forward differences D = dv/dx, the double well ``well`` = W(v)
    (``_well``) and the ``kernel.spectral_power`` of V."""

    norm: np.ndarray
    well: np.ndarray
    power: np.ndarray


def _squared_one_norm(D: list[np.ndarray]) -> np.ndarray:
    """(sum_i |D_i|)^2 in a new array, built in place in the order of the
    plain expression."""
    norm = np.abs(D[0])
    for t in D[1:]:
        norm += np.abs(t)
    norm *= norm
    return norm


def _modica_mortola(norm2: np.ndarray, well: np.ndarray, vol: float,
                    alpha: float) -> float:
    """M_alpha from the squared 1-norm ``norm2`` = (sum_i |D_i|)^2 of the
    forward differences D = dv/dx of samples v in [0, 1]
    (``_squared_one_norm``), their double well ``well`` = W(v) (``_well``)
    and the cell volume vol (no checks); both arrays are only read."""
    return float(3.0 * alpha * norm2.sum() * vol
                 + (3.0 / alpha) * well.sum() * vol)


class _FieldObjective:
    """The discrete energy F of n^d samples of an L-periodic field with
    values in [0, 1], and its gradient with the smoothed 1-norm.  Every
    evaluation of F or of its gradient in this package goes through it;
    the arrays it takes are not checked.

    Each array is transformed once.  ``energy`` (and ``split``) keep the
    last array they evaluate with its raw forward differences dv, D =
    dv/dx and rFFT, and ``grad`` of that same array reads them, so an
    accepted trial field is not transformed again.  ``grad`` keeps its own
    array's dv, W' and nonlocal gradient in a second slot, which
    ``slope_bound`` reads after a rejected trial has replaced the first,
    and which ``grad`` itself reads when a new kappa stage starts from the
    array the last one stopped at.
    Both slots hold the array itself and match it by identity, so an
    array that was evaluated must not be mutated in place.  The slots live
    on the objective, which each flow builds for itself, never on the
    shared cached kernel operator."""

    def __init__(self, params: ModelParams, L: float, n: int):
        d = self.d = int(params.d)
        self.op = _kernel.kernel_operator(L, n, params)
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
        # (v, dv, D, rFFT) of the last array evaluated, and (v, dv, W'(v),
        # nonlocal gradient) of the last grad call's array, for slope_bound
        self._trial = self._iterate = None

    @classmethod
    def of(cls, u: PeriodicField, params: ModelParams) -> "_FieldObjective":
        """The objective on the grid of ``u``."""
        if u.dims != params.d:
            raise ValueError("field dimension does not match params.d")
        return cls(params, u.L, u.n)

    def _evaluated(self, v: np.ndarray) -> tuple:
        """(dv, D, rFFT) of v, kept while v is the last array evaluated."""
        if self._trial is None or self._trial[0] is not v:
            dv = differences(v)
            self._trial = (v, dv, [t / self.dx for t in dv],
                           self.op.rfft(v))
        return self._trial[1:]

    def nonlocal_sum(self, v: np.ndarray) -> float:
        """NL(v), the lattice pair form of the periodized kernel."""
        return self.op.pair_sum(v) * self.vol2

    def split(self, v: np.ndarray, f: _Held | None = None
              ) -> tuple[float, float]:
        """(mm_term, nonlocal_term) of ``EnergyBreakdown``; with ``f``, the
        ``_Held`` intermediates of v, both terms are read from them without
        transforming v or keeping it."""
        if f is not None:
            mm = _modica_mortola(f.norm * f.norm, f.well, self.vol,
                                 self.alpha)
            nl = self.op.pair_sum_power(f.power.copy())
        else:
            _, D, f = self._evaluated(v)
            mm = _modica_mortola(_squared_one_norm(D), _well(v), self.vol,
                                 self.alpha)
            nl = self.op.pair_sum_rfft(f)
        return mm * self.c1 * self.vol_inv, nl * self.vol2 * self.vol_inv

    def energy(self, v: np.ndarray) -> float:
        mm, nl = self.split(v)
        return mm - nl

    def grad(self, v: np.ndarray, kappa: float) -> np.ndarray:
        """dF/dv_j with the 1-norm of the forward differences D_i smoothed
        to sum_i sqrt(D_i^2 + kappa^2).  The adjoint of D_i is the backward
        difference, so this is the exact gradient of the smoothed discrete
        energy (the nonlocal part is exact, no smoothing)."""
        if self._iterate is not None and self._iterate[0] is v:
            # a kappa stage starts where the last one stopped
            _, dv, well_prime, nl_grad = self._iterate
            diffs = [t / self.dx for t in dv]
        else:
            dv, diffs, f = self._evaluated(v)
            well_prime = _well_prime(v)
            nl_grad = self.pair_pref * (self.op.ksum * v
                                        - self.op.conv_rfft(f, v.shape))
        roots = [np.sqrt(t * t + kappa * kappa) for t in diffs]
        s = sum(roots)
        grad = self.well_pref * well_prime * self.vol
        for ax in range(self.d):
            flux = s * diffs[ax] / roots[ax]
            grad += self.flux_pref * (roll(flux, 1, ax) - flux)
        grad -= nl_grad
        self._iterate = (v, dv, well_prime, nl_grad)
        return grad

    def certificate(self):
        """``slope_bound``, the line-search certificate of
        ``solvers.projected_bb`` on [0, 1], when C_tau > 1; None otherwise,
        since then the interfacial term is concave and the bound fails."""
        return self.slope_bound if self.c1 > 0 else None

    def slope_bound(self, v: np.ndarray, g: np.ndarray
                    ) -> tuple[float, float, float]:
        """(slope, curv, s_max) with F(clip(v - s g)) - F(v) >=
        s slope - s^2 curv for 0 <= s <= s_max, exact in exact arithmetic.

        On [0, s_max] the clipped path is v + s d, with d = -g except on
        samples that sit on a bound and that g pushes out (d = 0 there), and
        s_max the first step at which a moving sample reaches a bound.
        Along it (sum_i |D_i v|)^2 is convex, so its one-sided slope (a kink
        D_i v = 0 contributes |D_i d|) bounds it from below; W'' >= -1; and
        NL is quadratic, NL(v + s d) = NL(v) + s <grad NL, d> + s^2 NL(d).
        So slope is F'(v; d) and curv = (3/alpha) sum d^2 / 2 + NL(d), each
        with its prefactor.  The differences, W' and nonlocal gradient of v
        come from the last ``grad(v)`` call when it was made on this array,
        so only NL(d) takes an rFFT, and only when slope > 0: otherwise the
        bound cannot stop a line search, and curv = +inf (a valid bound)
        is returned without it."""
        d = -g
        d[((v <= 0.0) & (g > 0)) | ((v >= 1.0) & (g < 0))] = 0.0
        # a sample moving down sits above 0 and one moving up below 1, so
        # every denominator is positive; rate is 1/(steps to the bound)
        with np.errstate(over="ignore"):
            rate = np.abs(d) / np.where(d < 0, v, np.where(d > 0, 1.0 - v,
                                                           1.0))
        top = float(np.max(rate))
        s_max = 1.0 / top if top > 0 else np.inf
        if self._iterate is not None and self._iterate[0] is v:
            _, dv, well_prime, nl_grad = self._iterate
        else:
            dv, well_prime = differences(v), _well_prime(v)
            nl_grad = self.pair_pref * (self.op.ksum * v - self.op.conv(v))
        # differences without the 1/dx: flux_pref holds one, the sum the other
        norm = slope_norm = 0.0
        for ax, dd in enumerate(differences(d)):
            norm = norm + np.abs(dv[ax])
            slope_norm = slope_norm + np.where(dv[ax] == 0, np.abs(dd),
                                               np.sign(dv[ax]) * dd)
        well = self.well_pref * self.vol
        slope = (self.flux_pref * float(np.sum(norm * slope_norm)) / self.dx
                 + well * float(np.sum(well_prime * d))
                 - float(np.sum(nl_grad * d)))
        if not slope > 0:
            # the bound certifies nothing then; +inf keeps it valid
            return slope, np.inf, s_max
        curv = (0.5 * well * float(np.sum(d * d))
                + self.nonlocal_sum(d) * self.vol_inv)
        return slope, curv, s_max


def modica_mortola(u: PeriodicField, alpha: float) -> float:
    """3 alpha sum ||grad u||_1^2 vol + (3/alpha) sum W(u) vol over one cell."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if u.n < 2:
        raise ValueError(f"n must be >= 2, got {u.n}")
    dx = u.h_grid
    D = [t / dx for t in differences(u.values)]
    return _modica_mortola(_squared_one_norm(D), _well(u.values),
                           dx ** u.dims, alpha)


def nonlocal_energy(u: PeriodicField, params: ModelParams) -> float:
    """int int |u(x+zeta) - u(x)|^2 K_tau(zeta) dx dzeta on the lattice."""
    return _FieldObjective.of(u, params).nonlocal_sum(u.values)


def total_energy(u: PeriodicField, params: ModelParams,
                 f: _Held | None = None) -> EnergyBreakdown:
    """Rescaled energy per unit volume with its two-term breakdown; ``f``,
    the ``_Held`` intermediates of u's values that the slicing report
    already holds, gives both terms without transforming u."""
    mm, nl = _FieldObjective.of(u, params).split(u.values, f)
    return EnergyBreakdown(mm_term=mm, nonlocal_term=nl, total=mm - nl)


def unscaled_energy(u: PeriodicField, J: float, eps: float, *, p: float
                    ) -> float:
    """Energy with the tau = 1 kernel and coupling J on the gradient part:
    (1/L^d) [ J M_eps(u) - NL_1(u) ]."""
    if J <= 0:
        raise ValueError("J must be positive")
    params1 = ModelParams(d=u.dims, p=p, tau=1.0, eps=eps, L=u.L)
    vol_inv = 1.0 / u.L ** u.dims
    mm = modica_mortola(u, eps)
    nl = nonlocal_energy(u, params1)
    return float(vol_inv * (J * mm - nl))


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


def _square_wave_correlation_integral(h: float, params: ModelParams
                                      ) -> float:
    """2 int_0^inf t(z) Khat_tau(z) dz where t is the triangle wave
    t(z) = z/h on [0, h], (2h - z)/h on [h, 2h], extended 2h-periodically;
    t is the x-average of |chi(x+z) - chi(x)|^2 for width-h stripes.
    Summed period by period until the bound on the tail's error is below
    1e-13 of the total."""
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
        if err <= 1e-13 * max(abs(total + half_tail), 1e-300) and k >= 2:
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
                         h_range: tuple[float, float] = (1e-2, 1e2)
                         ) -> tuple[float, float]:
    """Minimize the sharp stripe energy over the half-period h.

    A logarithmic scan over SHARP_GRID points brackets the minimum; golden
    section refines it to the relative bracket ``solvers.PERIOD_TOL``.
    """
    return scan_golden(lambda h: sharp_stripe_energy(h, params),
                       *h_range, SHARP_GRID)
