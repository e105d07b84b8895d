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
sums, nonlocal term through the cached operator of the certified
periodized marginal kernel (``kernel.marginal_operator``), one table per
(L, n) and model shared by ``f1d``, ``confined_split``, the descent and
the Euler-Lagrange diagnostics.  ``_ProfileObjective`` is the one
evaluation of the discrete F1d (split, gradient, interaction field) and
``_reflect`` the one reflection.  A trial profile is reflected,
differenced and transformed once: the descent's energy and gradient
share the reflection of a base profile, and the objective keeps the
slope and rFFT of the last profile it evaluates for every later use of
that same array.  The objective works on raw arrays and checks none of
them: profiles are checked where they enter (``Profile1D``,
``ReflectedProfile``, the descent's projection onto [1/2, 1]) and
coefficients by ``_gamma_array`` in the public functions that take them.
In the profile descent
(``solvers.projected_bb`` with the fixed MAX_ITER, TOL_ENERGY, TOL_GRAD,
STEP0 and TRACE_EVERY) n is even, the free variables are g[1..n/2-1] in
[1/2, 1] with both endpoints pinned at 1/2, and gradients on the full
period are folded back onto the base through the reflection.  The period
search is ``solvers.scan_golden``.  The penalized family updates gamma at
all samples at once in closed form (``_gamma_update``) and runs the scalar
``gamma_pointwise_optimum`` only where its penalized piece can win; its
alternating loop stops on TOL_OUTER.  The fixed thresholds of the checks
are module constants too: CROSSING_TOL for the 1/2-crossings of the
reflections, EL_DELTA for the bands next to the obstacles that the
Euler-Lagrange diagnostics leave out, and GAMMA_TOL for the measure of
{gamma > 1 + GAMMA_TOL} in the gamma-limit study.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import kernel as _kernel
from .field import Profile1D, check_gamma
from .model import ModelParams, double_well, double_well_prime
from .solvers import (ACTIVE_TOL, NoBracketError, brentq, projected_bb,
                      scan_golden)


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
        if abs(g[0] - 0.5) > 1e-9 or abs(g[-1] - 0.5) > 1e-9:
            raise ValueError("base profile must have g(0) = g(h) = 1/2")
        if np.any(g < 0.5 - 1e-12) or np.any(g > 1.0 + 1e-12):
            raise ValueError("base profile must take values in [1/2, 1]")
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


def _reflect(v: np.ndarray, odd: bool = True) -> np.ndarray:
    """Samples of v on [0, h] (both ends) followed by their mirror image
    on (h, 2h]: v(2h - x) := 1 - v(x), the odd reflection about the level
    1/2, or v(x) when ``odd`` is False.  Dropping the last sample gives
    the 2h-periodic extension."""
    back = v[-2::-1]
    return np.concatenate([v, 1.0 - back if odd else back])


def reflect_left(g: np.ndarray, i0: int, tol: float = CROSSING_TOL
                 ) -> np.ndarray:
    """Left reflection about grid point i0: keep samples with index <= i0,
    replace the rest of a window of equal width by 1 - g mirrored."""
    if not (0 <= i0 < g.size):
        raise IndexError("i0 out of range")
    if abs(g[i0] - 0.5) > tol:
        raise CrossingError(f"g[i0] = {g[i0]} is not a 1/2-crossing")
    return _reflect(g[: i0 + 1])


def reflect_right(g: np.ndarray, i0: int, tol: float = CROSSING_TOL
                  ) -> np.ndarray:
    """Right reflection about grid point i0 (mirror image of reflect_left)."""
    return reflect_left(g[::-1], g.size - 1 - i0, tol)[::-1]


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
    """The discrete F1d(gamma, G) of n samples G of an L-periodic profile:
    forward differences, rectangle sums, and the pair form of the
    periodized marginal kernel.  Every evaluation of F1d in this module
    goes through it.

    Nothing is checked here: G must already lie in [0, 1] and gamma be
    None, a scalar or n samples in [1, inf] (``_gamma_array``); W and W'
    are evaluated inline in the operation order of ``model.double_well``
    and ``model.double_well_prime``.

    Each profile is transformed once: the energy, its split and local
    integrals, the gradient and the interaction field keep the last G
    they evaluate with its slope and rFFT and read them again for that
    same array.  The slot holds G itself and matches it by identity, so a
    profile that was evaluated must not be mutated in place."""

    def __init__(self, params: ModelParams, L: float, n: int):
        self.L = L
        self.n = n
        self.dx = L / n
        self.alpha = params.alpha
        self.c = _kernel.c_tau(params)
        self.op = _kernel.marginal_operator(L, n, params)
        self.A = 3.0 * (self.c - 1.0) * self.alpha / L
        self.B = 3.0 * (self.c - 1.0) / (L * self.alpha)
        self._trial = None      # (G, slope, rFFT) of the last G evaluated

    def slope(self, G: np.ndarray) -> np.ndarray:
        """(G[j+1] - G[j]) / dx, periodically."""
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
        grad2, well = D ** 2, G * G * (1.0 - G) * (1.0 - G)
        if gamma is not None:
            grad2 = np.multiply(gamma, grad2, out=np.zeros(self.n),
                                where=D != 0)
            well = well / gamma
        return float(np.sum(grad2) * self.dx), float(np.sum(well) * self.dx)

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

    def interaction(self, G: np.ndarray) -> np.ndarray:
        """sum_{z != 0} (G(x + z) - G(x)) Khat_per(z) at every sample."""
        f = self._evaluated(G)[1]
        return self.op.conv_rfft(f, G.shape) - self.op.ksum * G

    def grad(self, G: np.ndarray, gamma: np.ndarray | None = None
             ) -> np.ndarray:
        gam = 1.0 if gamma is None else gamma
        gD = gam * self._evaluated(G)[0]
        back = np.empty(self.n)  # gD[j-1] - gD[j], periodically
        np.subtract(gD[:-1], gD[1:], out=back[1:])
        back[0] = gD[-1] - gD[0]
        well_prime = 2.0 * G * (1.0 - G) * (1.0 - 2.0 * G)
        grad = (self.A * 2.0 * back
                + self.B * well_prime / gam * self.dx)
        grad += (4.0 * self.dx * self.dx / self.L) * self.interaction(G)
        return grad


def f1d(gamma, g: Profile1D, params: ModelParams) -> float:
    """The 1D energy per unit length on g's period; gamma may be None (g's
    own coefficient, or 1), a scalar, or an array with +inf entries
    (infinite entries meeting g' != 0 give +inf).
    """
    gam = gamma if gamma is not None else g.gamma
    obj = _ProfileObjective(params, g.L, g.n)
    if gam is None:
        return obj.energy(g.g)
    gam = _gamma_array(gam, g.n)
    inf = np.isinf(gam)
    if inf.any() and np.any(obj.slope(g.g)[inf] != 0.0):
        # decided here: A gamma |G'|^2 would read NaN where |G'|^2
        # underflows to 0 or where A = 0 (C_tau = 1)
        return np.inf
    return obj.energy(g.g, gam)


def confined_split(gamma, g: Profile1D, params: ModelParams
                   ) -> tuple[float, float]:
    """Split the 1D energy as term1 + term2 with

        term1 = (3/L) (C_tau/2 - 1) int [ alpha gamma |g'|^2 + W/(alpha gamma) ]
        term2 = (3/(2L)) C_tau int [ same ] - NL/L.

    For profiles confined to one side of 1/2 both parts are nonnegative once
    tau is small; returned for direct inspection.
    """
    obj = _ProfileObjective(params, g.L, g.n)
    gam = _gamma_array(gamma, g.n)
    grad_int, well_int = obj.local_integrals(g.g, gam)
    mm = obj.alpha * grad_int + well_int / obj.alpha
    _, nonlocal_ = obj.split(g.g, gam)
    return (3.0 / g.L * (0.5 * obj.c - 1.0) * mm,
            1.5 * obj.c / g.L * mm - nonlocal_)


# ---------------------------------------------------------------------------
# reflection positivity and the chessboard estimate
# ---------------------------------------------------------------------------

def _quad_form(f: np.ndarray, x: np.ndarray, params: ModelParams) -> float:
    """sum_{i,j} f_i f_j Khat_tau(x_i - x_j) dx^2 with the open-line kernel."""
    dx = x[1] - x[0]
    kmat = _kernel.marginal_kernel(x[:, None] - x[None, :], params)
    return float(f @ kmat @ f) * dx * dx


def reflection_positivity_check(g: Profile1D, x0: float, params: ModelParams,
                                N: int = 2) -> tuple[float, float, float]:
    """Check that reflecting at a 1/2-crossing does not increase the
    nonlocal quadratic form on the window [-N L, N L]:

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

    # window [-N L, N L) by periodic extension, crossing at index i0
    reps = 2 * N
    G = np.tile(g.g, reps)
    x = -N * L + np.arange(reps * n) * dx
    i0 = N * n + i0_local

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

# the profile descent: iteration cap, stall and gradient tolerances, first
# trial step, and spacing of the trace rows
MAX_ITER = 20000
TOL_ENERGY = 1e-13
TOL_GRAD = 1e-7
STEP0 = 1.0
TRACE_EVERY = 50


@dataclass(frozen=True)
class MinimizeProfileResult:
    profile: ReflectedProfile
    value: float
    iterations: int
    trace: tuple  # (iteration, energy, step) triples
    stop: str     # why the descent stopped: one of solvers.STOP_REASONS


def _fold_grad(grad_G: np.ndarray, m: int) -> np.ndarray:
    """Chain rule through the reflection: d/d g_j acts on G_j with weight 1
    and on G_{n-j} with weight -1 (interior base points only)."""
    n = grad_G.size
    gb = np.empty(m + 1)
    gb[0] = gb[m] = 0.0
    j = np.arange(1, m)
    gb[1:m] = grad_G[j] - grad_G[n - j]
    return gb


def _initial_base(h: float, m: int, alpha: float) -> np.ndarray:
    x = np.linspace(0.0, h, m + 1)
    w = max(3.0 * alpha, 2.0 * h / (2 * m))
    ramp = np.minimum(np.minimum(x, h - x) / w, 1.0)
    g0 = 0.5 + 0.5 * ramp
    g0[0] = g0[-1] = 0.5
    return g0


def minimize_profile(params: ModelParams, h: float, n: int = 512,
                     g0_base: np.ndarray | None = None,
                     gamma: np.ndarray | None = None
                     ) -> MinimizeProfileResult:
    """Projected-gradient minimization of the gamma = 1 energy over C_h.

    Box constraints [1/2, 1] on the interior base samples, endpoints pinned
    at 1/2, backtracking line search on the exact energy, step growth on
    success (``solvers.projected_bb``).  Raises ConvergenceError (with
    trace) if the tolerances are not met within MAX_ITER.  ``gamma`` is
    None (for 1), a scalar or n coefficient samples in [1, inf].
    """
    if n < 32:
        raise ValueError("n must be >= 32")
    if n % 2:
        raise ValueError("n must be even")
    if gamma is not None:
        gamma = _gamma_array(gamma, n)
    obj = _ProfileObjective(params, 2.0 * h, n)
    m = n // 2
    last = [None, None]     # the last base profile evaluated, reflected

    def full(gb: np.ndarray) -> np.ndarray:
        # one reflection per base profile, so that the objective's slot
        # sees the same array for its energy and its gradient
        if last[0] is not gb:
            last[:] = gb, _reflect(gb)[:-1]
        return last[1]

    def energy(gb: np.ndarray) -> float:
        return obj.energy(full(gb), gamma)

    def grad(gb: np.ndarray) -> np.ndarray:
        return _fold_grad(obj.grad(full(gb), gamma), m)

    def project(y: np.ndarray) -> np.ndarray:
        # snap samples within rounding of a bound onto it; pin the ends
        gb = np.clip(y, 0.5, 1.0)
        gb[gb >= 1.0 - ACTIVE_TOL] = 1.0
        gb[gb <= 0.5 + ACTIVE_TOL] = 0.5
        gb[0] = gb[-1] = 0.5
        return gb

    gb = (np.asarray(g0_base, dtype=float).copy() if g0_base is not None
          else _initial_base(h, m, params.alpha))
    e = energy(gb)
    res = projected_bb(gb, e, energy, grad, 0.5, 1.0, project,
                       step0=STEP0, max_iter=MAX_ITER, tol_grad=TOL_GRAD,
                       tol_energy=TOL_ENERGY, trace_every=TRACE_EVERY)
    trace = [(0, e, STEP0), *res.trace]
    if not res.converged:
        raise ConvergenceError(
            f"no convergence in {res.iterations} iterations "
            f"(grad {res.grad_norm:.2e})", trace)
    trace.append((res.iterations, res.energy, res.step))
    prof = ReflectedProfile(h, res.x)
    value = f1d(gamma, prof.full(), params)
    return MinimizeProfileResult(prof, value, res.iterations, tuple(trace),
                                 res.stop)


@dataclass(frozen=True)
class PeriodSearchResult:
    h_star: float
    c_star: float
    profile: ReflectedProfile
    trace: tuple  # (h, value) pairs
    stop: str     # why the descent at h* stopped: one of solvers.STOP_REASONS

    def to_json(self) -> str:
        return json.dumps({"h_star": self.h_star, "c_star": self.c_star,
                           "trace": [list(t) for t in self.trace],
                           "stop": self.stop})


def optimal_period(params: ModelParams,
                   h_range: tuple[float, float] = (0.2, 50.0),
                   grid: int = 12, tol: float = 1e-3, n: int = 512
                   ) -> PeriodSearchResult:
    """Minimize h -> min_{g in C_h} F1d(1, g) by a logarithmic scan followed
    by golden section; ties break toward smaller h."""
    lo, hi = h_range
    trace = []
    cache: dict[float, MinimizeProfileResult] = {}

    def val(h: float) -> float:
        if h not in cache:
            cache[h] = minimize_profile(params, h, n=n)
            trace.append((h, cache[h].value))
        return cache[h].value

    try:
        h_star, _ = scan_golden(val, lo, hi, grid, tol)
    except NoBracketError:
        raise ConvergenceError("no interior minimum over the h range",
                               trace) from None
    res = cache[h_star]
    return PeriodSearchResult(h_star, res.value, res.profile, tuple(trace),
                              res.stop)


# ---------------------------------------------------------------------------
# Euler-Lagrange diagnostics
# ---------------------------------------------------------------------------

def i_g_profile(g, params: ModelParams) -> np.ndarray:
    """Lattice I_g(x) = sum_z (G(x + z) - G(x)) Khat_per(z) dx at every
    sample, against the periodized marginal (the far field enters through
    the periodization)."""
    prof = g.full() if isinstance(g, ReflectedProfile) else g
    obj = _ProfileObjective(params, prof.L, prof.n)
    return obj.dx * obj.interaction(prof.g)


OBSTACLE_TOL = 10 * np.finfo(float).eps * 1e3


def obstacle_set(G: np.ndarray, tol: float = OBSTACLE_TOL) -> np.ndarray:
    return G > 1.0 - tol


def free_boundary_points(g, tol: float = OBSTACLE_TOL
                         ) -> tuple[float, float] | None:
    """(xbar1, xbar2): boundary of the contact set {g = 1} inside the first
    half-period, or None when the obstacle is never touched."""
    prof = g.full() if isinstance(g, ReflectedProfile) else g
    n = prof.n
    dx = prof.L / n
    half = prof.g[: n // 2 + 1]
    on = np.nonzero(obstacle_set(half, tol))[0]
    if on.size == 0:
        return None
    return float(on[0] * dx), float(on[-1] * dx)


@dataclass(frozen=True)
class ELDiagnostics:
    residual: np.ndarray          # stationarity residual, NaN off {g < 1-d}
    max_abs_residual: float
    ineq_min: float               # min of (lhs - rhs) of the global form
    first_integral_gap4: float    # variation of the factor-4 invariant
    first_integral_gap2: float    # variation of the factor-2 invariant
    gamma1_margin: float
    gamma2_gap: float
    gamma3_ok: bool
    xbar: tuple[float, float] | None

    def to_json(self) -> str:
        return json.dumps({
            "max_abs_residual": self.max_abs_residual,
            "ineq_min": self.ineq_min,
            "first_integral_gap4": self.first_integral_gap4,
            "first_integral_gap2": self.first_integral_gap2,
            "gamma1_margin": self.gamma1_margin,
            "gamma2_gap": self.gamma2_gap,
            "gamma3_ok": self.gamma3_ok,
            "xbar": list(self.xbar) if self.xbar else None,
        })


def el_residual(gamma, g, params: ModelParams) -> ELDiagnostics:
    """Stationarity diagnostics for a candidate minimizer (gamma, g):

    - residual of 3 (C-1) alpha (gamma g')' = 3 (C-1) W'(g)/(2 gamma alpha)
      + 2 I_g on {EL_DELTA < g < 1 - EL_DELTA} (centered divided
      differences of the half-point products gamma g');
    - the same relation as a global inequality (>=, one-sided on the
      obstacle);
    - constancy of the first integral
      3 (C-1) [alpha gamma^2 |g'|^2 - W(g)/alpha] - c int gamma g' I_g
      for both written factors c = 4 and c = 2;
    - the pointwise optimal-coefficient conditions.
    """
    prof = g.full() if isinstance(g, ReflectedProfile) else g
    L, n = prof.L, prof.n
    dx = L / n
    G = prof.g
    gam = _gamma_array(gamma, n)
    alpha = params.alpha
    c = _kernel.c_tau(params)
    pref = 3.0 * (c - 1.0)

    # node-centered stencil, deliberately independent of the minimizer's
    # staggered discretization so the residual measures consistency with
    # the continuum equation rather than echoing the solver
    D = (np.roll(G, -1) - G) / dx                     # half-point gradients
    Dc = (np.roll(G, -1) - np.roll(G, 1)) / (2.0 * dx)
    prod = gam * Dc
    div = (np.roll(prod, -1) - np.roll(prod, 1)) / (2.0 * dx)
    ig = i_g_profile(prof, params)
    lhs = pref * alpha * div
    rhs = pref * double_well_prime(G) / (2.0 * gam * alpha) + 2.0 * ig
    res = lhs - rhs

    # the equation holds strictly between the two obstacles; on the full
    # period the contact sets are {g = 1} and its mirror image {g = 0}
    interior = (G < 1.0 - EL_DELTA) & (G > EL_DELTA)
    res_interior = np.where(interior, res, np.nan)
    max_res = float(np.nanmax(np.abs(res_interior))) if interior.any() \
        else 0.0
    # one-sided multiplier signs on the contact sets: res >= 0 on {g = 1},
    # res <= 0 on the mirrored set {g = 0}
    hi, lo = G >= 1.0 - EL_DELTA, G <= EL_DELTA
    sides = np.concatenate([res[hi], -res[lo]])
    ineq_min = float(np.min(sides)) if sides.size else 0.0

    # first integral on {g != 1}
    D_node = 0.5 * (D + np.roll(D, 1))
    phi = pref * (alpha * gam ** 2 * D_node ** 2 - double_well(G) / alpha)
    flux = np.cumsum(gam * D_node * ig) * dx
    notobs = ~obstacle_set(G)
    gaps = []
    for fac in (4.0, 2.0):
        psi = phi - fac * flux
        vals = psi[notobs]
        gaps.append(float(np.max(vals) - np.min(vals)) if vals.size else 0.0)

    finite = np.isfinite(gam)
    gam1 = gam <= 1.0 + 1e-9
    active = gam1 & interior
    margin = float(np.min((alpha * D_node ** 2 - double_well(G) / alpha)
                          [active])) if active.any() else np.inf
    mid = finite & ~gam1
    gap2 = float(np.max(np.abs((alpha * gam ** 2 * D_node ** 2
                                - double_well(G) / alpha)[mid]))) \
        if mid.any() else 0.0
    inf_mask = ~finite & (G < 1.0 - OBSTACLE_TOL)
    gamma3_ok = bool(np.all(np.abs(D_node[inf_mask]) < 1e-9)) \
        if inf_mask.any() else True

    return ELDiagnostics(
        residual=res_interior, max_abs_residual=max_res, ineq_min=ineq_min,
        first_integral_gap4=gaps[0], first_integral_gap2=gaps[1],
        gamma1_margin=margin, gamma2_gap=gap2, gamma3_ok=gamma3_ok,
        xbar=free_boundary_points(prof))


# ---------------------------------------------------------------------------
# penalized coefficient family
# ---------------------------------------------------------------------------

# the alternating loop of ``minimize_aux_penalized`` stops once a round
# lowers the penalized energy by less than TOL_OUTER; ``gamma_limit_study``
# measures where gamma exceeds 1 + GAMMA_TOL
TOL_OUTER = 1e-11
GAMMA_TOL = 0.01


def gamma_pointwise_optimum(a: float, b: float, m: float, w: float) -> float:
    """argmin over gamma in [1, inf) of a gamma + b / gamma
    + w (gamma - m)_+^2 (a, b >= 0; m >= 1; w > 0 unless a > 0).

    On [1, m] the minimum is sqrt(b/a) clamped; on [m, inf) it is the root
    of the increasing derivative, found by ``solvers.brentq``."""
    if a < 0 or b < 0 or m < 1:
        raise ValueError("need a, b >= 0 and m >= 1")
    if w <= 0 and a <= 0 and b > 0:
        raise ValueError("objective unbounded below in gamma")

    def q(x):
        return a * x + b / x + w * max(x - m, 0.0) ** 2

    # piece [1, m]: stationary point sqrt(b/a)
    if a > 0:
        c1 = min(max(np.sqrt(b / a), 1.0), m)
    else:
        c1 = m if b > 0 else 1.0
    best_x, best_v = c1, q(c1)

    # piece [m, inf): root of 2 w x^3 + (a - 2 w m) x^2 - b = 0
    if w > 0:
        def dq(x):
            return a - b / x ** 2 + 2.0 * w * (x - m)
        if dq(m) < 0:
            hi = m + 1.0
            while dq(hi) < 0:
                hi *= 2.0
            c2 = brentq(dq, m, hi, xtol=1e-14, rtol=1e-14)
            v2 = q(c2)
            if v2 < best_v - 0.0 or (v2 == best_v and c2 < best_x):
                best_x, best_v = c2, v2
    elif a > 0:
        c2 = np.sqrt(b / a)
        if c2 > m and q(c2) < best_v:
            best_x = c2
    return float(best_x)


def _gamma_update(a: np.ndarray, b: np.ndarray, m: float, w: float
                  ) -> np.ndarray:
    """``gamma_pointwise_optimum(a[j], b[j], m, w)`` at every sample j, for
    w > 0.  Where dq(m) = a - b / m^2 >= 0 the penalized piece [m, inf)
    cannot win and the optimum is the closed form of the piece [1, m]
    (sqrt(b/a) clamped, m where a = 0 < b, 1 where a = b = 0); the scalar
    routine runs only at the other samples."""
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("need a, b >= 0")
    pos = a > 0
    ratio = np.divide(b, a, out=np.zeros(a.shape), where=pos)
    gam = np.where(pos, np.minimum(np.maximum(np.sqrt(ratio), 1.0), m),
                   np.where(b > 0, m, 1.0))
    for j in np.flatnonzero(a - b / m ** 2 < 0):
        gam[j] = gamma_pointwise_optimum(a[j], b[j], m, w)
    return gam


def minimize_aux_penalized(m: float, params: ModelParams, h: float,
                           n: int = 512, outer_iter: int = 60
                           ) -> tuple[Profile1D, Profile1D, float]:
    """Alternating minimization of the penalized energy
    F_m(gamma, g) = F(gamma, g) + (1/(4h)) int (gamma - m)_+^2:
    exact pointwise gamma update, projected descent in g at frozen gamma.

    Returns (gamma_m, g_m, value) as full-period profiles.  Raises
    ConvergenceError when ``outer_iter`` rounds end without a decrease
    below TOL_OUTER.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    obj = _ProfileObjective(params, 2.0 * h, n)
    mm = n // 2
    dx = obj.dx
    gb = _initial_base(h, mm, params.alpha)
    gamma_full = np.ones(n)

    def penalty(gamma_full):
        return float(np.sum(np.maximum(gamma_full - m, 0.0) ** 2) * dx
                     / (4.0 * h))

    prev = np.inf
    for _ in range(outer_iter):
        res = minimize_profile(params, h, n=n, g0_base=gb,
                               gamma=gamma_full)
        gb = res.profile.base_g.copy()
        G = _reflect(gb)[:-1]
        D = obj.slope(G)
        a_w = obj.A * D ** 2 * dx
        b_w = obj.B * double_well(G) * dx
        gamma_full = _gamma_update(a_w, b_w, m, dx / (4.0 * h))
        # keep the coefficient in the reflection class
        mirror = _reflect(gamma_full[: mm + 1], odd=False)[:-1]
        gamma_full = 0.5 * (gamma_full + mirror)
        value = obj.energy(G, gamma_full) + penalty(gamma_full)
        if prev - value < TOL_OUTER:
            break
        prev = value
    else:
        raise ConvergenceError(
            f"no decrease below {TOL_OUTER:.1e} in {outer_iter} outer "
            "iterations")
    gam_prof = Profile1D(n, 2.0 * h, np.clip(G, 0.0, 1.0), gamma_full)
    e_final = f1d(gamma_full, gam_prof, params) + penalty(gamma_full)
    return (gam_prof, Profile1D(n, 2.0 * h, np.clip(G, 0.0, 1.0)),
            float(e_final))


def gamma_limit_study(params: ModelParams, h: float, m_schedule=(1, 10, 100),
                      n: int = 512) -> dict:
    """Run the penalized family along ``m_schedule`` and report how far the
    optimal coefficients sit from 1 (sup gamma - 1 and the measure of
    {gamma > 1 + GAMMA_TOL}) and the strict-inequality margin on
    {g < 1 - EL_DELTA}."""
    report = {"m": [], "value": [], "sup_gamma_minus_1": [],
              "measure_gamma_above": []}
    last = None
    for m in m_schedule:
        gam_prof, g_prof, value = minimize_aux_penalized(m, params, h, n=n)
        gam = gam_prof.gamma
        dx = 2.0 * h / n
        report["m"].append(m)
        report["value"].append(value)
        report["sup_gamma_minus_1"].append(float(np.max(gam) - 1.0))
        report["measure_gamma_above"].append(
            float(np.sum(gam > 1.0 + GAMMA_TOL) * dx))
        last = (gam_prof, g_prof)
    gam_prof, g_prof = last
    G = g_prof.g
    dx = 2.0 * h / n
    D = (np.roll(G, -1) - G) / dx
    D_node = 0.5 * (D + np.roll(D, 1))
    alpha = params.alpha
    # the strict inequality concerns the base half-period, where g takes
    # values in [1/2, 1]; the mirrored half repeats it through g -> 1 - g
    base = np.zeros(n, dtype=bool)
    base[: n // 2 + 1] = True
    sel = base & (G < 1.0 - EL_DELTA)
    margin = float(np.min((alpha * gam_prof.gamma[sel] ** 2
                           * D_node[sel] ** 2
                           - double_well(G[sel]) / alpha))) if sel.any() \
        else np.inf
    report["strict_margin"] = margin
    report["xbar"] = free_boundary_points(g_prof)
    report["grid_cell"] = dx
    return report
