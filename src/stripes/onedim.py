"""The one-dimensional variational problem.

The 1D energy per unit length of an L-periodic profile g with coefficient
gamma >= 1 is

    F1d(gamma, g) = (3 (C_tau - 1) / L) int_0^L [ alpha gamma |g'|^2
                     + W(g) / (alpha gamma) ] dx
                   - (1/L) int_0^L int_R |g(x) - g(y)|^2 Khat_tau(x - y),

with alpha = eps tau^(1/beta).  Candidate minimizers are periodic
reflections of profiles in the class C_h = { g on [0, h] : g >= 1/2,
g(0) = g(h) = 1/2 }: g is extended to period 2h by g(2h - x) := 1 - g(x)
and the coefficient evenly.  This module provides the functional, the
reflection maps and their positivity/chessboard estimates, the inner
profile minimization at fixed h, the outer search for the optimal
half-period h*, the penalized coefficient family F_m with its exact
pointwise gamma update, and Euler-Lagrange diagnostics.

Discretization: n samples on [0, L), forward differences, rectangle
sums, nonlocal term through a certified periodized kernel operator.
``_ProfileObjective`` is the one 1D problem (its operator, period,
prefactor 3 (C_tau - 1) and width alpha) and the one evaluation of the
discrete F1d; ``_ProfileObjective.of`` derives all four from the model,
with the cached marginal (``kernel.marginal_operator``), for ``f1d``,
the descent, the Euler-Lagrange diagnostics and the gamma study.
``_reflect`` is the one reflection; W and W' are ``model``'s, and only
the objective's slope and its adjoint, on the descent's path, difference
by hand.  A trial profile is reflected, differenced and transformed
once: the descent's energy and gradient share the reflection of a base
profile, and the objective keeps the slope and rFFT of the last profile
it evaluates for every later use of that same array.  The objective
works on raw arrays and checks none of them: profiles are checked where
they enter (``Profile1D``; base profiles by ``_check_base``, in
``ReflectedProfile`` and for the descent's start; the descent's
projection onto [1/2, 1]) and coefficients by ``_gamma_array`` in the
public functions that take them.
The profile descent (``_newton_descent``, with the fixed MAX_ITER,
TOL_GRAD and TRACE_EVERY) is an active-set Newton iteration for this
obstacle problem: n is even, the variables are g[1..n/2-1] in [1/2, 1]
with both endpoints pinned at 1/2, and gradients on the full period are
folded back onto the base through the reflection.  Samples on a bound
whose gradient pushes out of the box keep their value; on the free ones
the Newton system is formed from the objective's own pieces (difference
Laplacian, double well, kernel table) and solved densely with mirrored
eigenvalues, or by conjugate gradients once the free set is large.  A
trial passes a monotone Armijo test on its energy change: the difference
of the two energies where it exceeds their rounding (ENERGY_ROUNDING),
the closed form ``_ProfileObjective.delta`` (one rFFT, of the
difference) inside it.  A Newton step that fails is halved, and after
NEWTON_HALVINGS halvings the certified projected-gradient step 1/lam
(``_first_step``, lam a bound on the Hessian on the box) is tried.  So
the descent stops on its gradient test, not on rounding noise, and it
needs no energy tolerance.  Where gamma is +inf, the energy is finite
only while G' = 0 there, so a start without it is rejected and the
samples joined by +inf steps are one variable (``_Runs``): they move as
one, or not at all next to a pinned end.
The period search is ``solvers.scan_golden``, and each of its descents
but the first starts from those already solved in the same search
(``_warm_start``): a golden-section point from the interpolation in h of
its two nearest neighbours' base profiles, a later point of the ascending
scan from the profile solved below it, mapped in physical coordinates;
the descents still stop on their gradient test, so the search visits the
same periods as from cold starts.  The penalized family updates
gamma at all samples at once (``_gamma_update``): in closed form where the
penalized piece gamma > m cannot win, and by vectorized Newton steps that
rise monotonically to the root of the convex objective's derivative where
it can (at most NEWTON_ITER of them); its alternating loop stops on
TOL_OUTER within OUTER_ITER rounds.  The gamma-limit study
solves one descent per distinct (start, gamma) pair, keyed by their exact
bytes: every m starts from the same gamma = 1 descent, and later rounds
repeat across m once the gamma update no longer reaches m.  The fixed
thresholds of the checks are module constants too: CROSSING_TOL for the
1/2-crossings of the reflections, EL_DELTA for the bands next to the
obstacles that the Euler-Lagrange diagnostics leave out, and GAMMA_TOL
for the measure of {gamma > 1 + GAMMA_TOL} in the gamma-limit study.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import kernel as _kernel
from .field import Profile1D, check_gamma, differences, roll
from .model import (ModelParams, _well, _well_prime, double_well,
                    double_well_prime)
from .solvers import (ACTIVE_TOL, BACKTRACK, STEP_MAX, DescentResult,
                      NoBracketError, scan_golden)


# distance from a 1/2-crossing that the reflection checks tolerate
CROSSING_TOL = 1e-9
# the EL diagnostics leave out the bands {g < EL_DELTA} and
# {g > 1 - EL_DELTA} next to the obstacles
EL_DELTA = 0.05


class ConvergenceError(RuntimeError):
    """An iterative minimization did not meet its tolerances."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class CrossingError(ValueError):
    """A required 1/2-level crossing is absent or off-level."""


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReflectedProfile:
    """A profile g in C_h sampled at x_j = j h / m for j = 0..m, together
    with its implied 2h-periodic odd reflection about the level 1/2."""

    h: float
    base_g: np.ndarray
    base_gamma: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.base_g, dtype=float)
        if g.ndim != 1 or g.size < 3:
            raise ValueError("base_g must be a 1D array with >= 3 samples")
        _check_base(g)
        g = np.clip(g, 0.5, 1.0)
        g.setflags(write=False)
        object.__setattr__(self, "base_g", g)
        if self.base_gamma is not None:
            gam = np.asarray(self.base_gamma, dtype=float)
            if gam.shape != g.shape:
                raise ValueError("base_gamma must match base_g")
            gam.setflags(write=False)
            object.__setattr__(self, "base_gamma", gam)

    @property
    def m(self) -> int:
        return self.base_g.size - 1

    @property
    def n(self) -> int:
        return 2 * self.m

    def full(self) -> Profile1D:
        """The 2h-periodic profile on [0, 2h): G(x) = g(x) on [0, h],
        G(x) = 1 - g(2h - x) on (h, 2h); the coefficient is reflected
        evenly."""
        gam = (None if self.base_gamma is None
               else _reflect(self.base_gamma, odd=False)[:-1])
        return Profile1D(self.n, 2.0 * self.h, _reflect(self.base_g)[:-1],
                         gam)


def _check_base(g: np.ndarray) -> None:
    """Raise ValueError, naming the problem, unless the base samples g are
    finite, start and end at 1/2 and lie in [1/2, 1], each up to
    rounding."""
    if not np.all(np.isfinite(g)):
        raise ValueError("base profile must be finite")
    if abs(g[0] - 0.5) > 1e-9 or abs(g[-1] - 0.5) > 1e-9:
        raise ValueError("base profile must have g(0) = g(h) = 1/2, "
                         f"got {float(g[0])} and {float(g[-1])}")
    if np.any(g < 0.5 - 1e-12) or np.any(g > 1.0 + 1e-12):
        raise ValueError("base profile must take values in [1/2, 1]")


def _reflect(v: np.ndarray, odd: bool = True) -> np.ndarray:
    """Samples of v on [0, h] (both ends) followed by their mirror image
    on (h, 2h]: v(2h - x) := 1 - v(x), the odd reflection about the level
    1/2, or v(x) when ``odd`` is False.  Dropping the last sample gives
    the 2h-periodic extension."""
    back = v[-2::-1]
    return np.concatenate([v, 1.0 - back if odd else back])


def reflect_left(g: np.ndarray, i0: int) -> np.ndarray:
    """Left reflection about grid point i0: keep samples with index <= i0,
    replace the rest of a window of equal width by 1 - g mirrored."""
    if not (0 <= i0 < g.size):
        raise IndexError("i0 out of range")
    if abs(g[i0] - 0.5) > CROSSING_TOL:
        raise CrossingError(f"g[i0] = {g[i0]} is not a 1/2-crossing")
    return _reflect(g[: i0 + 1])


def reflect_right(g: np.ndarray, i0: int) -> np.ndarray:
    """Right reflection about grid point i0 (mirror image of reflect_left)."""
    return reflect_left(g[::-1], g.size - 1 - i0)[::-1]


# ---------------------------------------------------------------------------
# the 1D functional
# ---------------------------------------------------------------------------

def _gamma_array(gamma, n: int) -> np.ndarray:
    """gamma (None for 1, a scalar, or n samples) as n samples, checked by
    ``field.check_gamma``: NaN and entries below 1 are rejected, +inf is
    allowed."""
    if gamma is None:
        return np.ones(n)
    if np.isscalar(gamma):
        arr = np.full(n, float(gamma))
    else:
        arr = np.asarray(gamma, dtype=float)
        if arr.shape != (n,):
            raise ValueError(
                "gamma must be scalar or match the profile length")
    check_gamma(arr)
    return arr


class _ProfileObjective:
    """The discrete F1d(gamma, G) of n = op.table.size samples G of an
    L-periodic profile, prefactor ``pref`` = 3 (C_tau - 1) and width
    ``alpha``: forward differences, rectangle sums, the pair form of the
    kernel operator ``op``.  Every evaluation of F1d here goes through it.

    Nothing is checked here: G must already lie in [0, 1] and gamma be
    None, a scalar or n samples in [1, inf] (``_gamma_array``).

    Each profile is transformed once: the energy, its split and local
    integrals, the gradient and the interaction field keep the last G
    they evaluate with its slope and rFFT and read them again for that
    same array.  ``grad`` keeps its own G's slope and interaction field in
    a second slot, which ``delta`` reads after a trial has replaced the
    first.  Both slots hold G itself and match it by identity, so a
    profile that was evaluated must not be mutated in place."""

    def __init__(self, op: _kernel.PeriodicKernelOperator, L: float,
                 pref: float, alpha: float):
        self.op, self.L, self.pref, self.alpha = op, L, pref, alpha
        self.n = op.table.size
        self.dx = L / self.n
        self.A = pref * alpha / L
        self.B = pref / (L * alpha)
        self._trial = None      # (G, slope, rFFT) of the last G evaluated
        self._iterate = None    # (G, slope, interaction) of the last grad

    @classmethod
    def of(cls, params: ModelParams, L: float, n: int) -> _ProfileObjective:
        """The model's F1d on n samples of period L: its periodized
        marginal, 3 (C_tau - 1) and alpha."""
        return cls(_kernel.marginal_operator(L, n, params), L,
                   3.0 * (_kernel.c_tau(params) - 1.0), params.alpha)

    def slope(self, G: np.ndarray) -> np.ndarray:
        """(G[j+1] - G[j]) / dx, periodically."""
        # by hand: on the descent's path field.differences is ~3 us slower
        D = np.empty(self.n)
        np.subtract(G[1:], G[:-1], out=D[:-1])
        D[-1] = G[0] - G[-1]
        D /= self.dx
        return D

    def _evaluated(self, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(slope, rFFT) of G, kept while G is the last profile evaluated."""
        if self._trial is None or self._trial[0] is not G:
            self._trial = (G, self.slope(G), self.op.rfft(G))
        return self._trial[1:]

    def local_integrals(self, G: np.ndarray, gamma: np.ndarray | None = None
                        ) -> tuple[float, float]:
        """(int gamma |G'|^2, int W(G) / gamma); gamma = None means 1, and
        an infinite gamma costs nothing where G' = 0."""
        D = self._evaluated(G)[0]
        grad2, well = D ** 2, _well(G)
        if gamma is not None:
            grad2 = np.multiply(gamma, grad2, out=np.zeros(self.n),
                                where=D != 0)
            well = well / gamma
        return float(grad2.sum() * self.dx), float(well.sum() * self.dx)

    def split(self, G: np.ndarray, gamma: np.ndarray | None = None
              ) -> tuple[float, float]:
        """(local, nonlocal) with F1d = local - nonlocal."""
        grad_int, well_int = self.local_integrals(G, gamma)
        f = self._evaluated(G)[1]
        return (self.A * grad_int + self.B * well_int,
                self.dx * self.dx * self.op.pair_sum_rfft(f) / self.L)

    def energy(self, G: np.ndarray, gamma: np.ndarray | None = None
               ) -> float:
        local, nonlocal_ = self.split(G, gamma)
        return local - nonlocal_

    def first_integral(self, G, gamma, D: np.ndarray) -> np.ndarray:
        """alpha gamma^2 D^2 - W(G) / alpha, D the slope of G: the local
        part of the first integral over ``pref``, at every sample."""
        return self.alpha * gamma ** 2 * D ** 2 - double_well(G) / self.alpha

    def interaction(self, G: np.ndarray) -> np.ndarray:
        """sum_{z != 0} (G(x + z) - G(x)) Khat_per(z) at every sample."""
        f = self._evaluated(G)[1]
        return self.op.conv_rfft(f, G.shape) - self.op.ksum * G

    def grad(self, G: np.ndarray, gamma: np.ndarray | None = None
             ) -> np.ndarray:
        """dF1d/dG_j; an infinite gamma costs nothing where G' = 0, as in
        ``local_integrals``."""
        D = self._evaluated(G)[0]
        if gamma is None:
            gam, gD = 1.0, D
        else:
            gam = gamma
            gD = np.multiply(gamma, D, out=np.zeros(self.n), where=D != 0)
        back = np.empty(self.n)  # gD[j-1] - gD[j], by hand as in slope
        np.subtract(gD[:-1], gD[1:], out=back[1:])
        back[0] = gD[-1] - gD[0]
        grad = (self.A * 2.0 * back
                + self.B * _well_prime(G) / gam * self.dx)
        interaction = self.interaction(G)
        grad += (4.0 * self.dx * self.dx / self.L) * interaction
        self._iterate = (G, D, interaction)
        return grad

    def delta(self, G: np.ndarray, Gc: np.ndarray,
              gamma: np.ndarray | None = None) -> float:
        """F1d(gamma, Gc) - F1d(gamma, G) in closed form, from the
        difference P = Gc - G and its slope P':

            A dx sum gamma P' (2 G' + P')
            + B dx sum P (W' + P (W''/2 + P (W'''/6 + P))) / gamma
            - (dx^2 / L) (pair(P) - 4 <P, I(G)>),

        exact in exact arithmetic (W is a quartic with W''''/24 = 1, and
        the pair form is a quadratic form whose gradient is -4 I), with
        every term of the size of the change, so that its rounding is
        relative to the change and not to the energy.  G' and the
        interaction field I(G) come from the last ``grad`` call when it
        was made on this G, so only P takes an rFFT.  An infinite gamma
        costs nothing where P' (2 G' + P') = 0."""
        if self._iterate is not None and self._iterate[0] is G:
            _, D, interaction = self._iterate
        else:
            D = self.slope(G)
            interaction = self.op.conv(G) - self.op.ksum * G
        P = Gc - G
        dP = self.slope(P)
        flux = dP * (2.0 * D + dP)
        well = P * (_well_prime(G) + P * (1.0 + 6.0 * G * (G - 1.0)
                                          + P * (4.0 * G - 2.0 + P)))
        if gamma is not None:
            flux = np.multiply(gamma, flux, out=np.zeros(self.n),
                               where=flux != 0)
            well = well / gamma
        pair = (self.op.pair_sum_rfft(self.op.rfft(P))
                - 4.0 * float(P @ interaction))
        return (self.A * float(flux.sum()) * self.dx
                + self.B * float(well.sum()) * self.dx
                - self.dx * self.dx * pair / self.L)


def f1d(gamma, g: Profile1D, params: ModelParams) -> float:
    """The 1D energy per unit length on g's period; gamma may be None (g's
    own coefficient, or 1), a scalar, or an array with +inf entries
    (infinite entries meeting g' != 0 give +inf).
    """
    gam = gamma if gamma is not None else g.gamma
    obj = _ProfileObjective.of(params, g.L, g.n)
    if gam is None:
        return obj.energy(g.g)
    gam = _gamma_array(gam, g.n)
    inf = np.isinf(gam)
    if inf.any() and np.any(obj.slope(g.g)[inf] != 0.0):
        # decided here: A gamma |G'|^2 would read NaN where |G'|^2
        # underflows to 0 or where A = 0 (C_tau = 1)
        return np.inf
    return obj.energy(g.g, gam)


# ---------------------------------------------------------------------------
# reflection positivity and the chessboard estimate
# ---------------------------------------------------------------------------

def _quad_form(f: np.ndarray, x: np.ndarray, params: ModelParams) -> float:
    """sum_{i,j} f_i f_j Khat_tau(x_i - x_j) dx^2 with the open-line kernel."""
    dx = x[1] - x[0]
    kmat = _kernel.marginal_kernel(x[:, None] - x[None, :], params)
    return float(f @ kmat @ f) * dx * dx


def reflection_positivity_check(g: Profile1D, x0: float, params: ModelParams
                                ) -> tuple[float, float, float]:
    """Check that reflecting at a 1/2-crossing does not increase the
    nonlocal quadratic form on the window [-2 L, 2 L]:

        Q(g - 1/2)  >=  1/2 [ Q(theta_l g - 1/2) + Q(theta_r g - 1/2) ],

    each side evaluated on its own (reflected) window against the open-line
    marginal kernel; g(x0) must be 1/2 within CROSSING_TOL.  Returns
    (lhs, rhs, gap = lhs - rhs), gap >= 0 up to rounding expected for every
    crossing.
    """
    L, n = g.L, g.n
    dx = L / n
    i0_local = int(round(x0 / dx))
    if abs(i0_local * dx - x0) > 1e-9 * L:
        raise ValueError("x0 must lie on the sample grid")
    if abs(g.g[i0_local % n] - 0.5) > CROSSING_TOL:
        raise CrossingError(f"g(x0) = {g.g[i0_local % n]} != 1/2")

    # window [-2 L, 2 L) by periodic extension, crossing at index i0
    G = np.tile(g.g, 4)
    x = -2 * L + np.arange(4 * n) * dx
    i0 = 2 * n + i0_local

    f = G - 0.5
    lhs = _quad_form(f, x, params)

    gl = reflect_left(G, i0)
    xl = x[0] + np.arange(gl.size) * dx
    gr = reflect_right(G, i0)
    xr = x[i0] - (G.size - 1 - i0) * dx + np.arange(gr.size) * dx
    rhs = 0.5 * (_quad_form(gl - 0.5, xl, params)
                 + _quad_form(gr - 0.5, xr, params))
    return lhs, rhs, lhs - rhs


def chessboard_check(gamma, g: np.ndarray, crossings, params: ModelParams,
                     x_grid: np.ndarray | None = None
                     ) -> tuple[float, float, float]:
    """Chessboard estimate on a window [x_1, x_{m+1}] split at interior
    1/2-crossings x_1 < ... < x_{m+1} into one-signed arcs g_k:

        |I| * F1d(reflection of the whole window)
            >= sum_k h_k * F1d(reflection of arc k),   h_k = x_{k+1} - x_k.

    ``g`` (and optionally ``gamma``) are samples on a uniform grid spanning
    the window endpoints inclusively; crossings must lie on the grid.
    Returns (lhs, rhs, gap).
    """
    g = np.asarray(g, dtype=float)
    M = g.size - 1
    if x_grid is None:
        x_grid = np.linspace(crossings[0], crossings[-1], M + 1)
    dx = x_grid[1] - x_grid[0]
    width = x_grid[-1] - x_grid[0]
    gam = _gamma_array(gamma, M + 1)

    idx = []
    for xc in crossings:
        i = int(round((xc - x_grid[0]) / dx))
        if abs(x_grid[0] + i * dx - xc) > 1e-9 * width:
            raise CrossingError(f"crossing {xc} is off the grid")
        if abs(g[i] - 0.5) > 1e-7:
            raise CrossingError(f"g({xc}) = {g[i]} != 1/2")
        idx.append(i)
    if idx[0] != 0 or idx[-1] != M or len(idx) < 2:
        raise CrossingError("crossings must span the window")

    def _periodic_value(arc_g: np.ndarray, arc_gam: np.ndarray,
                        h_k: float) -> float:
        arc = arc_g if np.all(arc_g >= 0.5 - 1e-7) else 1.0 - arc_g
        arc = np.clip(arc, 0.5, 1.0)
        arc = arc.copy()
        arc[0] = arc[-1] = 0.5
        prof = ReflectedProfile(h_k, arc, arc_gam).full()
        return f1d(prof.gamma, prof, params)

    # left side: odd reflection of the whole window to period 2|I|
    prof_full = Profile1D(2 * M, 2.0 * width,
                          np.clip(_reflect(g)[:-1], 0.0, 1.0), None)
    lhs = width * f1d(_reflect(gam, odd=False)[:-1], prof_full, params)

    rhs = 0.0
    for k in range(len(idx) - 1):
        i, j = idx[k], idx[k + 1]
        if j - i < 2:
            raise CrossingError("arcs must contain at least one interior "
                                "sample")
        h_k = x_grid[j] - x_grid[i]
        sign_vals = g[i:j + 1] - 0.5
        if np.any(sign_vals > 1e-7) and np.any(sign_vals < -1e-7):
            raise CrossingError("arc is not one-signed about 1/2")
        rhs += h_k * _periodic_value(g[i:j + 1], gam[i:j + 1], h_k)
    return lhs, rhs, lhs - rhs


# ---------------------------------------------------------------------------
# inner minimization over C_h at fixed half-period
# ---------------------------------------------------------------------------

# the profile descent: iteration cap, gradient tolerance and spacing of the
# trace rows.  A trial whose energy differs from the iterate's by at most
# ENERGY_ROUNDING (|local| + |nonlocal|) of the trial is decided by the
# closed-form change (``_ProfileObjective.delta``) instead: each energy is
# a difference of two sums of n nonnegative terms taken by pairwise
# summation and an FFT, whose rounding grows like log2(n) eps, and this
# band holds that of two such energies with room to spare.  A trial passes
# when its change is at most ARMIJO <g, trial - x> < 0; a Newton step that
# fails is halved up to NEWTON_HALVINGS times before the certified
# gradient step is tried.  The Newton system of at most DENSE_MAX free
# samples is formed and solved by eigenvalues, each mirrored to its
# absolute value and raised to CURVATURE_FLOOR times the largest; a larger
# one is solved by at most CG_ITER conjugate-gradient steps.  Of DENSE_MAX
# = 0...512, 256 was fastest on resolved layers (PS1, h = 2.68, n up to
# 17152, whose ~100 free samples cost conjugate gradients dozens of rFFT
# pairs per step) and on wide starts (g = 0.75); an eigh takes ~9 ms at
# 256 samples and ~50 ms at 512 (numpy, one thread of a 2.1 GHz Xeon).
MAX_ITER = 20000
TOL_GRAD = 1e-7
TRACE_EVERY = 50
ENERGY_ROUNDING = 64 * np.finfo(float).eps
ARMIJO = 1e-4
NEWTON_HALVINGS = 10
DENSE_MAX = 256
CURVATURE_FLOOR = 1e-10
CG_ITER = 200


@dataclass(frozen=True)
class MinimizeProfileResult:
    profile: ReflectedProfile
    value: float
    iterations: int
    trace: tuple  # (iteration, energy, step) triples
    stop: str     # why the descent stopped: one of solvers.STOP_REASONS
    evals: int    # trials the descent evaluated


def _fold_grad(grad_G: np.ndarray, m: int) -> np.ndarray:
    """Chain rule through the reflection: d/d g_j acts on G_j with weight 1
    and on G_{n-j} with weight -1 (interior base points only)."""
    gb = np.empty(m + 1)
    gb[0] = gb[m] = 0.0
    np.subtract(grad_G[1:m], grad_G[:m:-1], out=gb[1:m])
    return gb


class _Runs:
    """The variables of the profile descent: the base samples 0..m, with
    each run of samples joined by +inf steps of gamma merged into one (a
    second-half step j joins base samples n-1-j and n-j as ``_reflect``
    mirrors them).  A +inf step costs +inf unless its two samples are
    equal, so tied samples move as one and stay equal bit for bit; the
    runs that hold the pinned ends 0 and m never move.  ``weight`` is the
    coefficient gamma_k + gamma_{n-1-k} of base step k in the base energy,
    0 on a tied step, whose slope stays 0."""

    def __init__(self, gamma: np.ndarray | None, m: int):
        if gamma is None:
            tied = np.zeros(m, dtype=bool)
            self.weight = np.full(m, 2.0)
        else:
            inf = np.isinf(gamma)
            tied = inf[:m] | inf[::-1][:m]  # base step k: G step k, n-1-k
            self.weight = np.where(tied, 0.0, gamma[:m] + gamma[::-1][:m])
        self.label = np.concatenate([[0], np.cumsum(~tied)])
        self.size = np.bincount(self.label)
        self.first = np.flatnonzero(np.diff(self.label, prepend=-1))
        self.pinned = np.zeros(self.size.size, dtype=bool)
        self.pinned[[0, -1]] = True

    def total(self, gb: np.ndarray) -> np.ndarray:
        """The sum of base values gb over each run: a run's derivative."""
        return np.bincount(self.label, weights=gb)


def _initial_base(h: float, m: int, alpha: float) -> np.ndarray:
    x = np.linspace(0.0, h, m + 1)
    w = max(3.0 * alpha, 2.0 * h / (2 * m))
    ramp = np.minimum(np.minimum(x, h - x) / w, 1.0)
    g0 = 0.5 + 0.5 * ramp
    g0[0] = g0[-1] = 0.5
    return g0


def _first_step(obj: _ProfileObjective, gamma: np.ndarray | None) -> float:
    """1/lam, with lam a bound on the Hessian of the base-profile energy on
    [1/2, 1]: the gradient term adds at most 8 A gamma_max / dx (the
    periodic difference Laplacian has norm 4), the double well at most
    2 B dx (W'' <= 2 on [0, 1]; -1 <= W'' gives -B dx when B < 0), the pair
    form is positive semidefinite so -NL adds nothing, and the reflection,
    which moves two samples per base sample, doubles the bound.  By the
    descent lemma the projected-gradient trial of this step lowers the
    energy.  gamma_max is the largest finite coefficient: where gamma is
    infinite the energy is flat or +inf.  With lam = 0 the energy is
    concave and every step descends, so the step is solvers.STEP_MAX."""
    finite = 1.0 if gamma is None else np.max(gamma, initial=1.0,
                                               where=np.isfinite(gamma))
    lam = 2.0 * (8.0 * max(obj.A, 0.0) * finite / obj.dx
                 + max(2.0 * obj.B, -obj.B) * obj.dx)
    return 1.0 / lam if lam > 0 else STEP_MAX


def _project(y: np.ndarray) -> np.ndarray:
    """y clipped to [1/2, 1], samples within ACTIVE_TOL of a bound snapped
    onto it, both ends pinned at 1/2."""
    gb = y.clip(0.5, 1.0)
    gb[gb >= 1.0 - ACTIVE_TOL] = 1.0
    gb[gb <= 0.5 + ACTIVE_TOL] = 0.5
    gb[0] = gb[-1] = 0.5
    return gb


def _newton_direction(obj: _ProfileObjective, G: np.ndarray,
                      gamma: np.ndarray | None, runs: _Runs,
                      free: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-H^-1 g on the ``free`` runs, H the Hessian of the energy in their
    values at the profile G and g its gradient there.  On the full period
    H is (2 A / dx) L_gamma, the difference Laplacian with gamma-weighted
    steps, plus the diagonal B dx W''(G) / gamma plus (4 dx^2 / L)
    (C - ksum I), C the circulant of the kernel table; through the
    reflection base samples i, k see H[i, k] - H[i, n-k] - H[n-i, k]
    + H[n-i, n-k], and a run the sum over its samples.  Up to DENSE_MAX
    free samples H is formed from these pieces and inverted on its
    eigenvalues, mirrored and floored (CURVATURE_FLOOR) so that the step
    descends; more are solved by conjugate gradients on products with H,
    one rFFT pair each, from 0 until the residual falls below
    min(1/2, |g|^(1/2)) |g| or a direction of nonpositive curvature ends
    them: at the first step the gradient is then scaled by its mirrored
    curvature."""
    n, m = obj.n, obj.n // 2
    well = 2.0 + 12.0 * G * (G - 1.0)                 # W''(G)
    if gamma is not None:
        well = well / gamma
    well *= obj.B * obj.dx
    lap = 2.0 * obj.A / obj.dx
    pair = 4.0 * obj.dx * obj.dx / obj.L
    f = np.flatnonzero(free)
    samples = np.flatnonzero(free[runs.label])
    if samples.size <= DENSE_MAX:
        table, w = obj.op.table, runs.weight
        i, k = samples[:, None], samples[None, :]
        H = (2.0 * pair) * (table[np.abs(i - k)] - table[i + k])
        # the zero lag is not in C: the diagonal is -2 pair table[2i]
        np.fill_diagonal(H, (-2.0 * pair) * table[2 * samples]
                         + well[samples] + well[n - samples]
                         + lap * (w[samples - 1] + w[samples])
                         - 2.0 * pair * obj.op.ksum)
        step = np.flatnonzero(np.diff(samples) == 1)
        H[step, step + 1] -= lap * w[samples[step]]
        H[step + 1, step] -= lap * w[samples[step]]
        if samples.size > f.size:
            P = (runs.label[samples][:, None] == f).astype(float)
            H = P.T @ H @ P
        lam, V = np.linalg.eigh(H)
        lam = np.abs(lam)
        np.maximum(lam, max(CURVATURE_FLOOR * lam.max(initial=0.0),
                            np.finfo(float).tiny), out=lam)
        return -(V @ ((V.T @ g) / lam))

    gam = 1.0 if gamma is None else np.where(np.isinf(gamma), 0.0, gamma)

    def hess(v: np.ndarray) -> np.ndarray:
        vr = np.zeros(runs.size.size)
        vr[f] = v
        vb = vr[runs.label]
        V = np.concatenate([vb, -vb[-2:0:-1]])     # V[n-i] = -vb[i]
        gD = gam * differences(V)[0]
        HV = (lap * (roll(gD, 1, 0) - gD) + well * V
              + pair * (obj.op.conv(V) - obj.op.ksum * V))
        return runs.total(_fold_grad(HV, m))[f]

    d = np.zeros(f.size)
    r, p = -g, -g
    rr = float(r @ r)
    tol = min(0.5, rr ** 0.25) * rr ** 0.5
    for j in range(CG_ITER):
        Hp = hess(p)
        curv = float(p @ Hp)
        if curv <= 0.0:
            if j == 0:
                d = p * (rr / max(abs(curv), CURVATURE_FLOOR * rr))
            break
        a = rr / curv
        d += a * p
        r = r - a * Hp
        rr, rr_old = float(r @ r), rr
        if rr ** 0.5 <= tol:
            break
        p = r + (rr / rr_old) * p
    return d


def _newton_descent(obj: _ProfileObjective, gamma: np.ndarray | None,
                    runs: _Runs, x: np.ndarray, G: np.ndarray, e: float,
                    step0: float, max_iter: int) -> DescentResult:
    """Active-set Newton descent of the base profile x (reflected G, energy
    e) on [1/2, 1] with both ends pinned.

    Each iteration takes the gradient g of every run and stops converged
    once the projected max-norm of its mean over the run, 0 on the runs
    on a bound where g pushes out of the box, is below TOL_GRAD.  Those
    runs form the active set and keep their value; on the others it tries
    the projected Newton step (``_newton_direction``), halved while it
    fails the test up to NEWTON_HALVINGS times, and then the certified
    projected-gradient step ``step0`` of the mean gradients
    (``_first_step``).  A trial passes when its energy change, the
    difference of the two energies or the closed form inside their
    rounding, is at most ARMIJO <g, trial - x> < 0.  When no trial passes
    the descent stops on ``line_search``, not converged.  The result's
    energy is the one evaluated for its x, its step that of the last
    trial, and ``evals`` counts the trials."""
    m = obj.n // 2
    trace = []
    converged, stop, step = False, "max_iter", step0
    gnorm = np.inf
    evals = it = 0
    while it < max_iter:
        it += 1
        gb = _fold_grad(obj.grad(G, gamma), m)
        g = runs.total(gb)
        mean = g / runs.size
        mean[runs.pinned] = 0.0
        xr = x[runs.first]
        at_lo, at_hi = xr <= 0.5 + ACTIVE_TOL, xr >= 1.0 - ACTIVE_TOL
        up = np.where(at_lo, 0.0, mean).max(initial=0.0)
        down = np.where(at_hi, 0.0, mean).min(initial=0.0)
        gnorm = abs(float(np.maximum(up, -down)))
        if gnorm < TOL_GRAD:
            converged, stop = True, "grad"
            break
        free = ~(runs.pinned | (at_lo & (g >= 0.0)) | (at_hi & (g <= 0.0)))
        d = np.zeros(runs.size.size)
        d[free] = _newton_direction(obj, G, gamma, runs, free, g[free])
        newton = ((BACKTRACK ** k, d) for k in range(NEWTON_HALVINGS + 1))
        for step, move in chain(newton, [(step0, -mean)]):
            cand = _project(x + step * move[runs.label])
            Gc = _reflect(cand)[:-1]
            local, nonlocal_ = obj.split(Gc, gamma)
            ec = local - nonlocal_
            change = ec - e
            if abs(change) <= ENERGY_ROUNDING * (abs(local) + abs(nonlocal_)):
                change = obj.delta(G, Gc, gamma)
            evals += 1
            predicted = float(gb @ (cand - x))
            if predicted < 0.0 and change <= ARMIJO * predicted:
                break
        else:
            stop = "line_search"
            break
        x, G, e = cand, Gc, ec
        if it % TRACE_EVERY == 0:
            trace.append((it, e, step))
    return DescentResult(x, e, it, converged, gnorm, step, tuple(trace),
                         stop, evals)


def _check_half_period(h: float) -> None:
    """Raise ValueError naming h unless it is finite and positive."""
    if not 0 < h < np.inf:      # NaN too
        raise ValueError(f"h must be {'positive' if h <= 0 else 'finite'}, "
                         f"got {h!r}")


def minimize_profile(params: ModelParams, h: float, n: int = 512,
                     g0_base: np.ndarray | None = None,
                     gamma: np.ndarray | None = None
                     ) -> MinimizeProfileResult:
    """Minimization of the energy over C_h by active-set Newton steps
    (``_newton_descent``).

    Box constraints [1/2, 1] on the interior base samples, endpoints pinned
    at 1/2.  Each trial is decided on its energy change by a monotone
    Armijo test, so the descent stops only on its gradient test: it raises
    ConvergenceError (with trace) if that test is not met within MAX_ITER
    iterations or if no trial of an iteration passes, neither the Newton
    step and its halvings nor the certified projected-gradient step.  ``gamma`` is None
    (for 1), a scalar or n coefficient samples in [1, inf]; samples joined
    by +inf entries move together (``_Runs``), so a start with G' = 0 there
    keeps it, and a start with G' != 0 on such a step (energy +inf) raises
    ValueError naming the first one.  A given start ``g0_base`` must be
    n/2 + 1 finite samples in [1/2, 1] with both ends at 1/2, and h finite
    and positive, or ValueError names what they lack.
    """
    _check_half_period(h)
    if n < 32:
        raise ValueError(f"n must be >= 32, got {n}")
    if n % 2:
        raise ValueError(f"n must be even, got {n}")
    if gamma is not None:
        gamma = _gamma_array(gamma, n)
    obj = _ProfileObjective.of(params, 2.0 * h, n)
    m = n // 2
    if g0_base is None:
        gb = _initial_base(h, m, obj.alpha)
    else:
        gb = np.array(g0_base, dtype=float)
        if gb.shape != (m + 1,):
            raise ValueError(f"g0_base must have n/2 + 1 = {m + 1} samples, "
                             f"got shape {gb.shape}")
        _check_base(gb)
    G = _reflect(gb)[:-1]
    if gamma is not None:
        # such a start has energy +inf, and tied samples never part
        bad = np.flatnonzero(np.isinf(gamma) & (obj.slope(G) != 0.0))
        if bad.size:
            j = int(bad[0])
            raise ValueError(
                f"start has G' != 0 where gamma = +inf, first at step {j} "
                f"(samples {j} and {(j + 1) % n})")
    e0 = obj.energy(G, gamma)
    step0 = _first_step(obj, gamma)
    res = _newton_descent(obj, gamma, _Runs(gamma, m), gb, G, e0, step0,
                          MAX_ITER)
    trace = [(0, e0, step0), *res.trace]
    if not res.converged:
        raise ConvergenceError(
            f"no convergence in {res.iterations} iterations "
            f"(grad {res.grad_norm:.2e}, stop {res.stop})", trace)
    trace.append((res.iterations, res.energy, res.step))
    prof = ReflectedProfile(h, res.x)
    # the energy evaluated for this very profile; finite, since the
    # profile keeps G' = 0 where gamma = +inf
    value = (res.energy if np.array_equal(prof.base_g, res.x)
             else f1d(gamma, prof.full(), params))
    return MinimizeProfileResult(prof, value, res.iterations, tuple(trace),
                                 res.stop, res.evals)


@dataclass(frozen=True)
class PeriodSearchResult:
    h_star: float
    c_star: float
    profile: ReflectedProfile
    trace: tuple       # (h, value) pairs
    stop: str          # why the descent at h* stopped: one of
                       # solvers.STOP_REASONS
    evals: int         # trials the descent at h* evaluated
    iterations: tuple  # Newton iterations of each descent, in trace order


def _warm_start(solved: dict, h: float) -> np.ndarray | None:
    """Start of the descent at h from the base profiles ``solved`` (h ->
    MinimizeProfileResult) of the same search; None (cold) when it is
    empty.  Between two solved periods: the linear interpolation in h of
    the nearest below and above, sample by sample (the base samples sit at
    the same fractions of every h), clipped to [1/2, 1].  Past them: the
    nearest solved profile g_k in physical coordinates,
    g(x) = g_k(min(x, h - x)) from the first half of g_k, held at its mid
    value beyond it, with both ends at 1/2."""
    below = [k for k in solved if k < h]
    above = [k for k in solved if k > h]
    if below and above:
        a, b = max(below), min(above)
        ga = solved[a].profile.base_g
        gb = solved[b].profile.base_g
        return np.clip(ga + (h - a) / (b - a) * (gb - ga), 0.5, 1.0)
    if not solved:
        return None
    k = max(below) if below else min(above)
    gk = solved[k].profile.base_g
    m = gk.size - 1
    half = m // 2 + 1
    j = np.arange(m + 1)
    g = np.interp(np.minimum(j, m - j) * (h / m),
                  np.arange(half) * (k / m), gk[:half])
    g[0] = g[-1] = 0.5
    return g


def optimal_period(params: ModelParams,
                   h_range: tuple[float, float] = (0.2, 50.0),
                   grid: int = 12, n: int = 512) -> PeriodSearchResult:
    """Minimize h -> min_{g in C_h} F1d(1, g) by a logarithmic scan over
    ``grid`` points followed by golden section to the relative bracket
    ``solvers.PERIOD_TOL``; ties break toward smaller h.

    Every descent but the first starts from the ones already solved in
    this call (``_warm_start``): a golden-section point, which has solved
    periods on both sides, from the interpolation in h of its two nearest
    neighbours' base profiles, and a scan point (the scan ascends) from
    the profile solved just below it, mapped in physical coordinates.  The
    starts only shorten the descents; each still stops on its gradient
    test, so the values, and the points the search visits, are those of
    cold starts up to the descents' tolerance."""
    lo, hi = h_range
    trace = []
    cache: dict[float, MinimizeProfileResult] = {}

    def val(h: float) -> float:
        if h not in cache:
            cache[h] = minimize_profile(params, h, n=n,
                                        g0_base=_warm_start(cache, h))
            trace.append((h, cache[h].value))
        return cache[h].value

    try:
        h_star, _ = scan_golden(val, lo, hi, grid)
    except NoBracketError:
        raise ConvergenceError(
            f"no interior minimum over the h range [{lo!r}, {hi!r}]",
            trace) from None
    res = cache[h_star]
    return PeriodSearchResult(h_star, res.value, res.profile, tuple(trace),
                              res.stop, res.evals,
                              tuple(r.iterations for r in cache.values()))


# ---------------------------------------------------------------------------
# Euler-Lagrange diagnostics
# ---------------------------------------------------------------------------

OBSTACLE_TOL = 10 * np.finfo(float).eps * 1e3


def obstacle_set(G: np.ndarray) -> np.ndarray:
    return G > 1.0 - OBSTACLE_TOL


def free_boundary_points(g) -> tuple[float, float] | None:
    """(xbar1, xbar2): boundary of the contact set {g = 1} inside the first
    half-period, or None when the obstacle is never touched."""
    prof = g.full() if isinstance(g, ReflectedProfile) else g
    n = prof.n
    dx = prof.L / n
    half = prof.g[: n // 2 + 1]
    on = np.nonzero(obstacle_set(half))[0]
    if on.size == 0:
        return None
    return float(on[0] * dx), float(on[-1] * dx)


def _node_slope(G: np.ndarray, dx: float) -> np.ndarray:
    """g' at the samples: the mean of the forward differences either side."""
    D = differences(G)[0] / dx
    return 0.5 * (D + roll(D, 1, 0))


@dataclass(frozen=True)
class ELDiagnostics:
    residual: np.ndarray          # stationarity residual, NaN off {g < 1-d}
    first_integral_gap4: float    # variation of the factor-4 invariant
    first_integral_gap2: float    # variation of the factor-2 invariant
    gamma3_ok: bool
    xbar: tuple[float, float] | None


def el_residual(gamma, g, params: ModelParams) -> ELDiagnostics:
    """Stationarity diagnostics for a candidate minimizer (gamma, g):

    - residual of 3 (C-1) alpha (gamma g')' = 3 (C-1) W'(g)/(2 gamma alpha)
      + 2 I_g on {EL_DELTA < g < 1 - EL_DELTA}: (gamma g')' is the centred
      difference of the node products gamma g', g' itself centred (the
      ``_node_slope`` the first integral also reads), which for gamma = 1
      is the wide stencil (G[j+2] - 2 G[j] + G[j-2]) / (4 dx^2);
    - constancy of the first integral
      3 (C-1) [alpha gamma^2 |g'|^2 - W(g)/alpha] - c int gamma g' I_g
      for both written factors c = 4 and c = 2;
    - gamma = +inf only where g' = 0 off the obstacle.
    """
    prof = g.full() if isinstance(g, ReflectedProfile) else g
    obj = _ProfileObjective.of(params, prof.L, prof.n)
    dx, G, pref, alpha = obj.dx, prof.g, obj.pref, obj.alpha
    gam = _gamma_array(gamma, prof.n)

    # node-centered stencil, deliberately independent of the minimizer's
    # staggered discretization so the residual measures consistency with
    # the continuum equation rather than echoing the solver
    D_node = _node_slope(G, dx)
    prod = gam * D_node
    div = (roll(prod, -1, 0) - roll(prod, 1, 0)) / (2.0 * dx)
    ig = dx * obj.interaction(G)
    lhs = pref * alpha * div
    rhs = pref * double_well_prime(G) / (2.0 * gam * alpha) + 2.0 * ig
    res = lhs - rhs

    # the equation holds strictly between the two obstacles; on the full
    # period the contact sets are {g = 1} and its mirror image {g = 0}
    interior = (G < 1.0 - EL_DELTA) & (G > EL_DELTA)
    res_interior = np.where(interior, res, np.nan)

    # first integral on {g != 1}
    phi = pref * obj.first_integral(G, gam, D_node)
    flux = np.cumsum(gam * D_node * ig) * dx
    notobs = ~obstacle_set(G)
    gaps = []
    for fac in (4.0, 2.0):
        psi = phi - fac * flux
        vals = psi[notobs]
        gaps.append(float(np.max(vals) - np.min(vals)) if vals.size else 0.0)

    inf_mask = ~np.isfinite(gam) & (G < 1.0 - OBSTACLE_TOL)
    gamma3_ok = bool(np.all(np.abs(D_node[inf_mask]) < 1e-9))

    return ELDiagnostics(
        residual=res_interior, first_integral_gap4=gaps[0],
        first_integral_gap2=gaps[1], gamma3_ok=gamma3_ok,
        xbar=free_boundary_points(prof))


# ---------------------------------------------------------------------------
# penalized coefficient family
# ---------------------------------------------------------------------------

# the alternating loop of ``minimize_aux_penalized`` stops once a round
# lowers the penalized energy by less than TOL_OUTER, and fails after
# OUTER_ITER rounds; the gamma update takes at most NEWTON_ITER Newton
# steps; ``gamma_limit_study`` measures where gamma exceeds 1 + GAMMA_TOL
TOL_OUTER = 1e-11
OUTER_ITER = 60
NEWTON_ITER = 100
GAMMA_TOL = 0.01


def _gamma_update(a: np.ndarray, b: np.ndarray, m: float, w: float
                  ) -> np.ndarray:
    """argmin over gamma in [1, inf) of q(gamma) = a gamma + b / gamma
    + w (gamma - m)_+^2 at every sample (a, b >= 0; m >= 1; w > 0).

    q is convex, so its minimizer is where q' = a - b / gamma^2
    + 2 w (gamma - m)_+ changes sign.  Where q'(m) = a - b / m^2 >= 0 it
    lies in [1, m]: sqrt(b/a) clamped (1 where a = b = 0).  Elsewhere it is
    the root of q' on (m, inf), where q' is increasing and concave, so
    Newton steps from gamma = m rise monotonically to it; they stop once
    no sample grows, and ConvergenceError is raised if some sample still
    grows after NEWTON_ITER steps."""
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("need a, b >= 0")
    pos = a > 0
    ratio = np.divide(b, a, out=np.zeros(a.shape), where=pos)
    gam = np.where(pos, np.minimum(np.maximum(np.sqrt(ratio), 1.0), m),
                   np.where(b > 0, m, 1.0))
    up = np.flatnonzero(a - b / m ** 2 < 0)
    a, b, x = a[up], b[up], np.full(up.size, float(m))
    for _ in range(NEWTON_ITER):
        dq = a - b / x ** 2 + 2.0 * w * (x - m)
        step = x - dq / (2.0 * b / x ** 3 + 2.0 * w)
        if not np.any(step > x):
            break
        x = np.maximum(x, step)
    else:
        raise ConvergenceError(
            f"gamma update still moving after {NEWTON_ITER} Newton steps")
    gam[up] = x
    return gam


class _Descents(dict):
    """The profile descents of one ``gamma_limit_study`` or
    ``minimize_aux_penalized`` call, that is of one model, h and n: the
    ``MinimizeProfileResult`` of each descent keyed by the exact bytes of
    its (start base, gamma).  The descent is deterministic, so a reused
    result is bit for bit the one a new descent would return.  ``reused``
    counts the lookups that found one."""

    reused = 0

    def solve(self, params: ModelParams, h: float, n: int, gb: np.ndarray,
              gamma: np.ndarray) -> MinimizeProfileResult:
        """``minimize_profile`` from base gb at coefficient gamma, solved
        once per distinct (gb, gamma)."""
        key = (gb.tobytes(), gamma.tobytes())
        if key in self:
            self.reused += 1
        else:
            self[key] = minimize_profile(params, h, n=n, g0_base=gb,
                                         gamma=gamma)
        return self[key]


def minimize_aux_penalized(m: float, params: ModelParams, h: float,
                           n: int = 512, descents: _Descents | None = None
                           ) -> tuple[Profile1D, Profile1D, float]:
    """Alternating minimization of the penalized energy
    F_m(gamma, g) = F(gamma, g) + (1/(4h)) int (gamma - m)_+^2:
    exact pointwise gamma update, projected descent in g at frozen gamma.

    Returns (gamma_m, g_m, value) as full-period profiles.  Raises
    ConvergenceError when OUTER_ITER rounds end without a decrease below
    TOL_OUTER.  ``descents`` (``gamma_limit_study``'s, for the same
    model, h and n) reuses the descents of earlier calls; by default the
    call keeps its own.  An m below 1 or an h that is not finite and
    positive raises ValueError naming it.
    """
    if not m >= 1:
        raise ValueError(f"m must be >= 1, got {m!r}")
    _check_half_period(h)
    descents = _Descents() if descents is None else descents
    obj = _ProfileObjective.of(params, 2.0 * h, n)
    mm = n // 2
    dx = obj.dx
    gb = _initial_base(h, mm, obj.alpha)
    gamma_full = np.ones(n)
    prev = np.inf
    for _ in range(OUTER_ITER):
        res = descents.solve(params, h, n, gb, gamma_full)
        gb = res.profile.base_g.copy()
        G = _reflect(gb)[:-1]
        D = obj.slope(G)
        a_w = obj.A * D ** 2 * dx
        b_w = obj.B * double_well(G) * dx
        gamma_full = _gamma_update(a_w, b_w, m, dx / (4.0 * h))
        # keep the coefficient in the reflection class
        mirror = _reflect(gamma_full[: mm + 1], odd=False)[:-1]
        gamma_full = 0.5 * (gamma_full + mirror)
        value = obj.energy(G, gamma_full) + float(
            np.sum(np.maximum(gamma_full - m, 0.0) ** 2) * dx / (4.0 * h))
        if prev - value < TOL_OUTER:
            break
        prev = value
    else:
        raise ConvergenceError(
            f"no decrease below {TOL_OUTER:.1e} in {OUTER_ITER} outer "
            "iterations")
    # value is F_m of the returned pair: gamma_m is finite (w > 0)
    G = np.clip(G, 0.0, 1.0)
    return (Profile1D(n, 2.0 * h, G, gamma_full), Profile1D(n, 2.0 * h, G),
            float(value))


def gamma_limit_study(params: ModelParams, h: float, m_schedule=(1, 10, 100),
                      n: int = 512) -> dict:
    """Run the penalized family along ``m_schedule`` and report how far the
    optimal coefficients sit from 1 (sup gamma - 1 and the measure of
    {gamma > 1 + GAMMA_TOL}) and the strict-inequality margin on
    {g < 1 - EL_DELTA}.

    Every m starts from the same gamma = 1 descent, and once no sample
    reaches the penalized piece the gamma update no longer depends on m:
    the study solves one descent per distinct (start, gamma) and reuses it
    for every m that repeats it.  The report counts the descents solved
    and reused and records the ``stop`` and the trials evaluated
    (``evals``) of each solved one.  An empty schedule, an m below 1, or
    an h that is not finite and positive raises ValueError naming it
    before any descent."""
    m_schedule = tuple(m_schedule)
    if not (m_schedule and all(m >= 1 for m in m_schedule)):
        raise ValueError("m_schedule must hold one or more m >= 1, got "
                         f"{m_schedule!r}")
    _check_half_period(h)
    report = {"m": [], "value": [], "sup_gamma_minus_1": [],
              "measure_gamma_above": []}
    descents = _Descents()
    obj = _ProfileObjective.of(params, 2.0 * h, n)
    dx = obj.dx
    for m in m_schedule:
        gam_prof, g_prof, value = minimize_aux_penalized(
            m, params, h, n=n, descents=descents)
        gam = gam_prof.gamma
        report["m"].append(m)
        report["value"].append(value)
        report["sup_gamma_minus_1"].append(float(np.max(gam) - 1.0))
        report["measure_gamma_above"].append(
            float(np.sum(gam > 1.0 + GAMMA_TOL) * dx))
    G = g_prof.g    # the profile of the last m
    D_node = _node_slope(G, dx)
    # the strict inequality concerns the base half-period, where g takes
    # values in [1/2, 1]; the mirrored half repeats it through g -> 1 - g
    sel = G < 1.0 - EL_DELTA
    sel[n // 2 + 1:] = False
    report["strict_margin"] = float(np.min(obj.first_integral(G, gam, D_node),
                                           where=sel, initial=np.inf))
    report["xbar"] = free_boundary_points(g_prof)
    report["grid_cell"] = dx
    report["descents_solved"] = len(descents)
    report["descents_reused"] = descents.reused
    report["descent_stops"] = [res.stop for res in descents.values()]
    report["descent_evals"] = [res.evals for res in descents.values()]
    return report
