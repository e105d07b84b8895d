"""The shared solvers: projected Barzilai-Borwein descent (run by
``flow.gradient_flow``) and golden-section search with a logarithmic
bracketing scan (run by both optimal-period searches, which stop at the
relative bracket PERIOD_TOL).  The constants ACTIVE_TOL, BACKTRACK and
STEP_MAX and the ``DescentResult`` record are shared with the 1D profile
descent (``onedim.minimize_profile``, an active-set Newton iteration).

The descent keeps four rules: the clamped Barzilai-Borwein step, halving
until a trial lowers the energy (the line search compares energies and is
monotone), the certified exit (``certify``), which proves that no shorter
step goes below the current energy, and MAX_HALVINGS rejected trials as
the backstop.  Each iteration's projected-gradient norm is the maximum of
two unmasked arrays, g with 0 on the samples at the lower bound and at the
upper one, rather than a masked reduction: the same value, NaN included,
at a fraction of the cost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BACKTRACK = 0.5             # step factor after a rejected trial step
MAX_HALVINGS = 60
STEP_MIN, STEP_MAX = 1e-10, 1e6
# a sample within this distance of a bound counts as sitting on it, so
# samples parked at a bound up to rounding count as constrained
ACTIVE_TOL = 1e-12
# why a descent stopped: the projected-gradient test held, no backtracking
# trial decreased the energy (or a slope bound proved that no shorter trial
# can), or the iteration budget ran out
STOP_REASONS = ("grad", "line_search", "max_iter")
# relative width of the bracket at which both optimal-period searches stop
PERIOD_TOL = 1e-3


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
    evals: int              # trials it evaluated


def projected_bb(x: np.ndarray, e: float, energy, grad, lo: float,
                 hi: float, *, step0: float, max_iter: int,
                 tol_grad: float, trace_every: int, start: int = 0,
                 certify=None) -> DescentResult:
    """Projected descent of ``energy`` from ``x`` (of energy ``e``) on the
    box [lo, hi].

    Each iteration zeroes the gradient where a sample sits on a bound and
    the gradient points out of the box, and stops converged once the
    max-norm of what is left is below ``tol_grad``.  Otherwise it tries
    ``x - step * grad`` clipped to the box, with the Barzilai-Borwein step
    s.s / s.y clamped to [STEP_MIN, STEP_MAX] (the previous iteration's
    step when s.y <= 0, ``step0`` at the first), and halves it until the
    energy decreases strictly.  When no trial of MAX_HALVINGS does, or
    ``certify`` proves that no shorter trial can (below), it stops,
    converged only if the projected gradient is within 1e4 tol_grad.
    Iterations are numbered from ``start`` + 1 to ``max_iter``, so stages
    of one run can share the count.  The result's ``stop`` names which of
    these three tests ended the descent, ``evals`` counts the calls of
    ``energy``, and each trace row carries the step of the trial accepted
    at its iteration.

    ``certify(x, g)``, when given, returns (slope, curv, s_max) such that
    energy(clip(x - s g)) - energy(x) >= s slope - s^2 curv for every
    0 < s <= s_max.  It is called once per iteration, at the first rejected
    trial, and the line search stops as ``line_search`` without a further
    energy call once the next trial step s has slope > 0, s <= s_max and
    s curv <= slope / 2: then every step in (0, s] raises the energy by at
    least s slope / 2, so no shorter trial can lower it.
    """
    step = step0
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
        # one, with 0 in place of the samples on that bound (the maximum of
        # a masked reduction, which costs several times as much); on a box
        # wider than 2 ACTIVE_TOL a NaN in g or x enters one of the two and
        # so the norm
        up = np.where(x <= lo + ACTIVE_TOL, 0.0, g).max(initial=0.0)
        down = np.where(x >= hi - ACTIVE_TOL, 0.0, g).min(initial=0.0)
        gnorm = abs(float(np.maximum(up, -down)))
        if gnorm < tol_grad:
            converged, stop = True, "grad"
            break
        bound = None
        for _ in range(MAX_HALVINGS):
            cand = (x - step * g).clip(lo, hi)
            ec = energy(cand)
            down = ec < e
            evals += 1
            if down:
                break
            step *= BACKTRACK
            if certify is not None:
                if bound is None:
                    bound = certify(x, g)
                slope, curv, s_max = bound
                if slope > 0 and step <= s_max and step * curv <= slope / 2:
                    break
        if not down:
            # exact stall of the line search: accept only a small gradient
            converged = gnorm < 1e4 * tol_grad
            stop = "line_search"
            break
        x, e = cand, ec
        if it % trace_every == 0:
            trace.append((it, e, step))
    return DescentResult(x, e, it, converged, gnorm, step, tuple(trace),
                         stop, evals)


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo: float, hi: float, rel_tol: float = PERIOD_TOL
                   ) -> tuple[float, float]:
    """Golden-section minimum of f on [lo, hi], the bracket narrowed until
    it is within ``rel_tol`` (finite and positive, or ValueError) of its
    larger end or stops narrowing; ties resolve to the smaller argument.
    Each point is evaluated once, the ends of [lo, hi] only if they are
    still ends of the final bracket, though in a bracket a few floats wide
    a new point can round onto an old one.  Returns (argmin, value)."""
    if not (np.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and positive, got "
                         f"{rel_tol!r}")
    a, b = lo, hi
    fa = fb = None
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (width := b - a) > rel_tol * max(abs(a), abs(b), 1e-300):
        if f1 <= f2:
            b, fb, x2, f2 = x2, f2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, fa, x1, f1 = x1, f1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        if b - a >= width:
            break
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    return (a, fa) if fa <= fb else (b, fb)


def scan_golden(f, lo: float, hi: float, grid: int) -> tuple[float, float]:
    """Minimum of f on [lo, hi]: f at ``grid`` log-spaced points brackets
    it around the smallest value, and ``golden_section`` refines that
    bracket to PERIOD_TOL.  Raises ValueError for a ``grid`` below 3,
    which cannot bracket a minimum, and NoBracketError when the smallest
    value sits at an end of the range."""
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    if grid < 3:
        raise ValueError(f"grid must be >= 3, got {grid!r}")
    hs = np.geomspace(lo, hi, grid)
    i = int(np.argmin([f(h) for h in hs]))
    if i == 0 or i == grid - 1:
        raise NoBracketError("no interior minimum in the scanned range")
    return golden_section(f, hs[i - 1], hs[i + 1])
