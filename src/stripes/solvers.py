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
the backstop.  It computes each quantity only when the decision that reads
it is reached.  The projected-gradient norm is the maximum of two unmasked
arrays, g with 0 on the samples at the lower bound and at the upper one,
rather than a masked reduction (the same value, NaN included, at a
fraction of the cost); the first half alone shows that most iterations
have not converged, so the second is taken only when the first cannot
decide and at the iteration that ends the descent.  The step s_max up to
which the certificate holds is box geometry (``_step_to_bound``), and
``certify`` is called only once a halved step falls within it.
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


def _step_to_bound(x: np.ndarray, g: np.ndarray, lo: float, hi: float
                   ) -> float:
    """The first step s at which a moving sample of the clipped path
    clip(x - s g) to [lo, hi] reaches a bound (inf when none moves): up to
    it the path is x + s d, with d = -g except on the samples that sit on
    a bound and that g pushes out (d = 0 there)."""
    d = -g
    d[((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0))] = 0.0
    # a sample moving down sits above lo and one moving up below hi, so
    # every denominator is positive; rate is 1/(steps to the bound)
    with np.errstate(over="ignore"):
        rate = np.abs(d) / np.where(d < 0, x - lo, np.where(d > 0, hi - x,
                                                            1.0))
    top = float(np.max(rate))
    return 1.0 / top if top > 0 else np.inf


def _grad_norm(x: np.ndarray, g: np.ndarray, hi: float, up) -> float:
    """max |g| over the components that do not push out of the box, from
    ``up``, the largest g off the lower bound, and the largest -g off the
    upper one, each with 0 in place of the samples on that bound (the
    maximum of a masked reduction, which costs several times as much); on
    a box wider than 2 ACTIVE_TOL a NaN in g or x enters one of the two
    and so the norm."""
    down = np.where(x >= hi - ACTIVE_TOL, 0.0, g).min(initial=0.0)
    return abs(float(np.maximum(up, -down)))


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

    The gradient test reads the largest g off the lower bound first: when
    that alone reaches tol_grad, as it does in most iterations, the test
    fails without the other half.  The full norm is taken only when the
    first half cannot decide and at the iteration that ends the descent,
    so the ``grad_norm`` of every stop is the full norm of its last
    projected gradient.

    ``certify(x, g)``, when given, returns (slope, curv) such that
    energy(clip(x - s g)) - energy(x) >= s slope - s^2 curv for every
    0 < s <= s_max, where s_max is the first step at which a moving sample
    of the clipped path reaches a bound (``_step_to_bound``, computed here
    at the first rejected trial).  It is called at most once per line
    search, when the halved step first falls within s_max, and the line
    search stops as ``line_search`` without a further energy call once the
    next trial step s has slope > 0, s <= s_max and s curv <= slope / 2:
    then every step in (0, s] raises the energy by at least s slope / 2, so
    no shorter trial can lower it.
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
        # the full norm is below tol_grad only if its first half is
        up = np.where(x <= lo + ACTIVE_TOL, 0.0, g).max(initial=0.0)
        gnorm = _grad_norm(x, g, hi, up) if up < tol_grad else None
        if gnorm is not None and gnorm < tol_grad:
            converged, stop = True, "grad"
            break
        s_max = bound = None
        for _ in range(MAX_HALVINGS):
            # x - step g, clipped, built in place
            cand = np.multiply(step, g)
            np.subtract(x, cand, out=cand)
            np.clip(cand, lo, hi, out=cand)
            ec = energy(cand)
            down = ec < e
            evals += 1
            if down:
                break
            step *= BACKTRACK
            if certify is not None:
                if s_max is None:
                    s_max = _step_to_bound(x, g, lo, hi)
                if step <= s_max:
                    if bound is None:
                        bound = certify(x, g)
                    slope, curv = bound
                    if slope > 0 and step * curv <= slope / 2:
                        break
        if not down:
            stop = "line_search"
            break
        x, e = cand, ec
        if it % trace_every == 0:
            trace.append((it, e, step))
    if gnorm is None:
        # a line-search stop or the end of the budget: the full norm of the
        # last iteration's projected gradient
        gnorm = _grad_norm(x_prev, g_prev, hi, up)
    if stop == "line_search":
        # exact stall of the line search: accept only a small gradient
        converged = gnorm < 1e4 * tol_grad
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
