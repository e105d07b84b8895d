"""The shared solvers: projected Barzilai-Borwein descent (run by
``flow.gradient_flow`` and ``onedim.minimize_profile``), golden-section
search with a logarithmic bracketing scan (run by both optimal-period
searches) and Brent's root finder (run by the pointwise gamma update).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BACKTRACK = 0.5             # step factor after a rejected trial step
STEP_GROWTH = 1.5           # step factor after an accepted one
MAX_HALVINGS = 60
# backtracking trials in a row that return exactly the current energy end
# the line search: the energy did not move over a factor-2 range of steps,
# so every shorter step only samples rounding noise
FLAT_TRIALS = 2
STALL_LIMIT = 25            # accepted steps in a row that gain < tol_energy
STEP_MIN, STEP_MAX = 1e-10, 1e6
# a sample within this distance of a bound counts as sitting on it, so
# samples parked at a bound up to rounding count as constrained
ACTIVE_TOL = 1e-12
# why a descent stopped: the projected-gradient test held, STALL_LIMIT
# accepted steps gained too little, no backtracking trial decreased the
# energy (or FLAT_TRIALS in a row returned it unchanged, or a slope bound
# proved that no shorter trial can), or the iteration budget ran out
STOP_REASONS = ("grad", "stall", "line_search", "max_iter")


class NoBracketError(RuntimeError):
    """A line search could not bracket an interior minimum."""


@dataclass(frozen=True)
class DescentResult:
    x: np.ndarray
    energy: float
    iterations: int         # number of the last iteration run
    converged: bool
    grad_norm: float        # max-norm of the last projected gradient
    step: float             # trial step length when the descent stopped
    trace: tuple            # (iteration, energy, step) every trace_every
    stop: str               # why it stopped: one of STOP_REASONS
    evals: int              # calls of ``energy`` made by the descent


def projected_bb(x: np.ndarray, e: float, energy, grad, lo: float,
                 hi: float, project=None, *, step0: float, max_iter: int,
                 tol_grad: float, tol_energy: float, trace_every: int,
                 start: int = 0, certify=None) -> DescentResult:
    """Projected descent of ``energy`` from ``x`` (of energy ``e``) on the
    box [lo, hi].

    Each iteration zeroes the gradient where a sample sits on a bound and
    the gradient points out of the box, and stops converged once the
    max-norm of what is left is below ``tol_grad``.  Otherwise it tries
    ``project(x - step * grad)`` (default: clip to the box), with the
    Barzilai-Borwein step clamped to [STEP_MIN, STEP_MAX], and backtracks
    until the energy decreases strictly.  When no trial of MAX_HALVINGS
    does, FLAT_TRIALS trials in a row return exactly the current energy
    (the energy no longer resolves the step), or ``certify`` proves that no
    shorter trial can (below), it stops, converged only if the projected
    gradient is within 1e4 tol_grad.  It also stops converged
    after STALL_LIMIT accepted steps in a row that each gain less than
    ``tol_energy``.  Iterations are numbered from ``start`` + 1 to
    ``max_iter``, so stages of one run can share the count.  The result's
    ``stop`` names which of these four tests ended the descent.

    ``certify(x, g)``, when given, returns (slope, curv, s_max) such that
    energy(project(x - s g)) - energy(x) >= s slope - s^2 curv for every
    0 < s <= s_max.  It is called once per iteration, at the first rejected
    trial, and the line search stops as ``line_search`` without a further
    energy call once the next trial step s has slope > 0, s <= s_max and
    s curv <= slope / 2: then every step in (0, s] raises the energy by at
    least s slope / 2, so no shorter trial can lower it.
    """
    if project is None:
        def project(y):
            return np.clip(y, lo, hi)
    step = step0
    stall = 0
    gnorm = np.inf
    converged = False
    stop = "max_iter"
    trace = []
    x_prev = g_prev = None
    evals = 0
    it = start
    while it < max_iter:
        it += 1
        g = grad(x)
        if x_prev is not None:
            s = (x - x_prev).ravel()
            y = (g - g_prev).ravel()
            sy = float(s @ y)
            if sy > 0:
                step = min(max(float(s @ s) / sy, STEP_MIN), STEP_MAX)
        x_prev, g_prev = x, g
        # max |g| over the components that do not push out of the box: the
        # largest g off the lower bound and the largest -g off the upper
        # one; on a box wider than 2 ACTIVE_TOL a NaN in g or x enters one
        # of the two and so the norm
        up = np.max(g, where=~(x <= lo + ACTIVE_TOL), initial=0.0)
        down = np.min(g, where=~(x >= hi - ACTIVE_TOL), initial=0.0)
        gnorm = abs(float(np.maximum(up, -down)))
        if gnorm < tol_grad:
            converged, stop = True, "grad"
            break
        flat = 0
        bound = None
        for _ in range(MAX_HALVINGS):
            cand = project(x - step * g)
            ec = energy(cand)
            evals += 1
            if ec < e:
                break
            step *= BACKTRACK
            flat = flat + 1 if ec == e else 0
            if flat == FLAT_TRIALS:
                break
            if certify is not None:
                if bound is None:
                    bound = certify(x, g)
                slope, curv, s_max = bound
                if slope > 0 and step <= s_max and step * curv <= slope / 2:
                    break
        if not ec < e:
            # exact stall of the line search: accept only a small gradient
            converged, stop = gnorm < 1e4 * tol_grad, "line_search"
            break
        stall = stall + 1 if e - ec < tol_energy else 0
        x, e = cand, ec
        step = min(step * STEP_GROWTH, STEP_MAX)
        if it % trace_every == 0:
            trace.append((it, e, step))
        if stall >= STALL_LIMIT:
            converged, stop = True, "stall"
            break
    return DescentResult(x, e, it, converged, gnorm, step, tuple(trace),
                         stop, evals)


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo: float, hi: float, rel_tol: float = 1e-3
                   ) -> tuple[float, float]:
    """Golden-section minimum of f on [lo, hi]; ties resolve to the smaller
    argument.  Each point is evaluated once, the ends of [lo, hi] only if
    they are still ends of the final bracket.  Returns (argmin, value)."""
    a, b = lo, hi
    fa = fb = None
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > rel_tol * max(abs(a), abs(b), 1e-300):
        if f1 <= f2:
            b, fb, x2, f2 = x2, f2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, fa, x1, f1 = x1, f1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    return (a, fa) if fa <= fb else (b, fb)


def scan_golden(f, lo: float, hi: float, grid: int, rel_tol: float
                ) -> tuple[float, float]:
    """Minimum of f on [lo, hi]: f at ``grid`` log-spaced points brackets
    it around the smallest value, and ``golden_section`` refines that
    bracket.  Raises NoBracketError when the smallest value sits at an end
    of the range."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    hs = np.geomspace(lo, hi, grid)
    i = int(np.argmin([f(h) for h in hs]))
    if i == 0 or i == grid - 1:
        raise NoBracketError("no interior minimum in the scanned range")
    return golden_section(f, hs[i - 1], hs[i + 1], rel_tol=rel_tol)


def brentq(f, xa: float, xb: float, xtol: float, rtol: float,
           maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A step-for-step port of SciPy's ``brentq`` (its C routine), so it
    returns the same float: interpolation (secant, or inverse quadratic
    once three points are known) where that step is short enough, bisection
    otherwise, until half the bracket is below (xtol + rtol |x|) / 2.
    Raises ValueError unless f(xa) and f(xb) differ in sign, and
    RuntimeError after ``maxiter`` iterations without convergence."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError(f"f({xa}) and f({xb}) have the same sign")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"brentq did not converge in {maxiter} iterations "
                       f"(last x = {xcur})")
