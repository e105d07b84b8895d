"""Projected gradient flow in d >= 2, stripe diagnostics, and the
symmetry-breaking experiment.

The descent direction smooths the 1-norm in the interfacial term with
``sqrt(D_i^2 + kappa^2)``; line-search acceptance and all reported numbers
use the exact (unsmoothed) energy, so the monotone-decrease invariant
refers to the true functional.  The line search halves a rejected step, and
a stage ends on ``line_search`` after solvers.MAX_HALVINGS rejected trials
or as soon as a slope bound certifies that no shorter step can lower the
exact energy.  The smoothed direction crosses kinks of the exact 1-norm,
so the exact energy can rise along it however short the step; at the
first rejected trial ``energy._FieldObjective.slope_bound`` gives the
one-sided slope F' of the exact energy along the clipped path and a
curvature bound Q, and the search stops once the next step s has F' > 0
and s Q <= F'/2.  The bound needs C_tau > 1 (a convex interfacial term);
otherwise the flow passes no certificate and the search runs to
MAX_HALVINGS.  A flow builds one
``energy._FieldObjective``, which resolves the kernel operator and the
prefactors once, and hands its
``energy`` and ``grad`` on raw arrays to ``solvers.projected_bb``: each of
the KAPPA_STAGES kappa stages, starting at KAPPA, runs it with the fixed
STEP0 and TOL_GRAD, within MAX_ITER iterations of the whole flow, and the
trace keeps a row every TRACE_EVERY iterations, why each stage stopped
(``grad``, ``line_search`` or ``max_iter``), its energy calls and its
final projected-gradient norm.
The objective transforms each field once (its energy state serves the
gradient of an accepted trial, and the gradient's serves the slope bound
and the gradient that starts the next kappa stage),
and it belongs to its flow alone, so runs on several threads share only the
read-only kernel operator.  The last trace entry of a flow is the exact
energy of the field it returns, so the benchmark and the experiment's runs
report it without evaluating it again.  The stripe search rasterizes every
candidate stripe profile in one broadcast and screens the candidates by
per-axis slab sums of |u| and |u - 1| with a certified rounding margin; only
those within the margin of the best are summed over the whole grid, which
gives the exhaustive search's choice bit for bit.  Without a given h*, the
experiment takes it from ``onedim.optimal_period`` over H_RANGE at SEARCH_N
samples.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from . import energy as _energy
from . import kernel as _kernel
from . import onedim as _onedim
from .field import (PeriodicField, StripeSpec, check_stripe_period,
                    make_stripes, stripe_line)
from .model import ModelParams
from .solvers import projected_bb


KAPPA = 1e-3        # smoothing scale of the first stage
KAPPA_STAGES = 3    # continuation: kappa -> kappa/10 per stage
STEP0 = 1.0
TOL_GRAD = 1e-6
MAX_ITER = 5000     # iterations of one flow, over all its stages
TRACE_EVERY = 10    # trace row every TRACE_EVERY iterations
# the period search that fixes h* when the experiment is not given one
SEARCH_N = 512
H_RANGE = (0.3, 40.0)
# a run counts as stripes above this anisotropy and below this relative gap
ANISOTROPY_THRESHOLD = 0.95
GAP_THRESHOLD = 0.02


@dataclass(frozen=True)
class FlowOptions:
    seed: int = 0


@dataclass(frozen=True)
class FlowTrace:
    entries: tuple          # (iteration, energy, step) triples
    converged: bool
    iterations: int
    stop: tuple             # solvers.STOP_REASONS entry of each kappa stage
    evals: tuple            # energy calls of each kappa stage
    grad_norm: tuple        # final projected-gradient max-norm of each stage

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,energy,step\n")
            for it, e, s in self.entries:
                fh.write(f"{it},{e!r},{s!r}\n")


@dataclass(frozen=True)
class StripeMetrics:
    best_axis: int
    best_h: float
    best_nu: float
    l1_to_best_stripes: float
    fourier_anisotropy: float


# ---------------------------------------------------------------------------
# gradient of the energy with the smoothed 1-norm
# ---------------------------------------------------------------------------

def energy_gradient(u: PeriodicField, params: ModelParams,
                    kappa: float = KAPPA) -> np.ndarray:
    """Partial derivatives dE/du_j of the discrete energy whose interfacial
    term uses the smoothed anisotropic norm sum_i sqrt(D_i^2 + kappa^2).

    Forward differences D_i live on cell faces; the adjoint is the backward
    difference, so the returned array is the exact gradient of the smoothed
    discrete energy (the nonlocal part is exact, no smoothing).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return _energy._FieldObjective.of(u, params).grad(u.values, kappa)


# ---------------------------------------------------------------------------
# projected gradient flow
# ---------------------------------------------------------------------------

def gradient_flow(u0: PeriodicField, params: ModelParams
                  ) -> tuple[PeriodicField, FlowTrace]:
    """Projected descent of the exact energy with box projection onto [0, 1].

    Backtracking guarantees a strictly monotone energy trace; the smoothing
    scale starts at KAPPA and follows the continuation schedule
    kappa -> kappa / 10 after each stage, KAPPA_STAGES times in total.
    """
    obj = _energy._FieldObjective.of(u0, params)
    v = np.array(u0.values, dtype=float)
    e = obj.energy(v)
    trace = [(0, e, STEP0)]
    stages = []
    it = 0
    converged = False
    kappa = KAPPA
    for _ in range(KAPPA_STAGES):
        res = projected_bb(v, e, obj.energy, partial(obj.grad, kappa=kappa),
                           0.0, 1.0, step0=STEP0, max_iter=MAX_ITER,
                           tol_grad=TOL_GRAD, trace_every=TRACE_EVERY,
                           start=it, certify=obj.certificate())
        v, e, it, converged = res.x, res.energy, res.iterations, res.converged
        trace.extend(res.trace)
        stages.append((res.stop, res.evals, res.grad_norm))
        kappa /= 10.0
    trace.append((it, e, 0.0))
    stops, evals, gnorms = zip(*stages)
    return (u0.with_values(v),
            FlowTrace(tuple(trace), converged, it, stops, evals, gnorms))


# ---------------------------------------------------------------------------
# stripe diagnostics
# ---------------------------------------------------------------------------

def fourier_anisotropy(u: PeriodicField, axis: int) -> float:
    """Fraction of the non-DC spectral power carried by wavevectors parallel
    to ``axis`` (1-based); 0 by convention on constant fields."""
    spec = np.abs(np.fft.fftn(u.values)) ** 2
    total = float(np.sum(spec))
    dc = float(spec[(0,) * u.dims])
    nondc = total - dc
    if nondc <= 0.0:
        return 0.0
    idx = [0] * u.dims
    idx[axis - 1] = slice(None)
    line = float(np.sum(spec[tuple(idx)])) - dc
    return line / nondc


def stripe_metrics(u: PeriodicField, h_grid, nu_grid) -> StripeMetrics:
    """Exhaustive projection of ``u`` onto rasterized stripe patterns.

    Minimizes the volume-normalized L1 distance over axis x h_grid x
    nu_grid, first of equals in that order; the spectral anisotropy is
    reported for the minimizing axis.

    The search is screened, with the same result bit for bit as summing
    |u - line| over the grid for every candidate.  A line is binary, so
    |u - line| is |u| or |u - 1| sample by sample, and per-axis slab sums
    of those two arrays add up each candidate's terms in another order.
    Any summation order of N nonnegative terms lies within gamma_{N-1} =
    (N - 1) u / (1 - (N - 1) u), u = eps/2, of their exact sum, relatively
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec.
    4.2), so the full sum lies within 2 N eps of the screened one, and so
    does the distance after the monotone scaling by vol / L^d.  Only the
    candidates whose lower end reaches the smallest upper end can be the
    first smallest; they alone are summed over the whole grid, in the
    search order.
    """
    d, n, L = u.dims, u.n, u.L
    vol = u.h_grid ** d
    hs, nus = [], []
    for h in h_grid:
        h = float(h)
        check_stripe_period(h, L, n)
        for nu in nu_grid:
            if 0 <= nu < 2 * h:    # offsets repeat modulo the full period
                hs.append(h)
                nus.append(float(nu))
    best = (np.inf, 1, np.nan, np.nan)
    if hs:
        lines = stripe_line(np.array(hs)[:, None], np.array(nus)[:, None],
                            L, n)
        ones = lines.astype(bool)
        v = u.values
        terms = (np.abs(v), np.abs(v - 1.0))   # |v - line| at line = 0, 1
        screened = []
        for ax in range(d):
            other = tuple(a for a in range(d) if a != ax)
            slab0, slab1 = (t.sum(axis=other) for t in terms)
            screened.append(np.where(ones, slab1, slab0).sum(axis=1))
        rel = 2.0 * v.size * np.finfo(float).eps
        screened = np.array(screened)
        lo = screened * (1.0 - rel) * vol / L ** d
        hi = screened * (1.0 + rel) * vol / L ** d
        for ax, i in zip(*np.nonzero(lo <= np.min(hi))):
            shape = [1] * d
            shape[ax] = n
            dist = float(np.sum(np.abs(v - lines[i].reshape(shape))) * vol
                         ) / L ** d
            if dist < best[0]:
                best = (dist, int(ax) + 1, hs[i], nus[i])
    dist, ax, h, nu = best
    return StripeMetrics(best_axis=ax, best_h=h, best_nu=nu,
                         l1_to_best_stripes=dist,
                         fourier_anisotropy=fourier_anisotropy(u, ax))


# ---------------------------------------------------------------------------
# symmetry-breaking experiment
# ---------------------------------------------------------------------------

def tiled_stripe_benchmark(params: ModelParams, h_star: float, k: int,
                           n: int) -> tuple[PeriodicField, float]:
    """Best one-dimensional competitor on the n^d flow grid: the binary
    k-fold stripe tiling of half-period h*, polished by the same gradient
    flow the experiment uses (it stays one-dimensional by equivariance), so
    benchmark and runs share one lattice energy."""
    L = 2.0 * k * h_star
    u0 = make_stripes(StripeSpec(1, h_star, 0.0), L, n, params.d)
    u, tr = gradient_flow(u0, params)
    return u, tr.entries[-1][1]


def symmetry_breaking_experiment(params: ModelParams, k: int = 1,
                                 n: int = 64, n_seeds: int = 10,
                                 opts: FlowOptions | None = None,
                                 h_star: float | None = None,
                                 threads: int | None = None) -> dict:
    """Gradient-flow runs from uniform-noise seeds on the torus of side
    L = 2 k h*, scored against the k-fold tiling of the 1D optimum.

    Returns a JSON-serializable report with per-seed metrics, the success
    fraction (anisotropy above ANISOTROPY_THRESHOLD and relative energy
    gap below GAP_THRESHOLD, both recorded), every input needed to
    reproduce the run bit for bit, and under ``kernel`` the certificate of
    the flows' periodized kernel table.  ``opts.seed`` is the master seed
    of the runs, and ``threads`` (None for 1) the number of runs in flight
    at once.  Before any work, k < 1, an n that is not a positive multiple
    of 2k, n_seeds < 1 and threads < 1 raise ValueError naming the value.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n % (2 * k):
        raise ValueError(f"2k = {2 * k} must divide n = {n}")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    workers = 1 if threads is None else threads
    if workers < 1:
        raise ValueError(f"threads={threads!r}: the thread count must be >= 1")
    opts = opts or FlowOptions()
    if h_star is None:
        search = _onedim.optimal_period(params, H_RANGE, n=SEARCH_N)
        h_star = search.h_star
    L = 2.0 * k * h_star
    run_params = replace(params, L=L)

    bench_u, bench_e = tiled_stripe_benchmark(run_params, h_star, k, n)
    h_grid = [L / (2 * j) for j in range(1, max(2 * k + 2, 4))
              if n % (2 * j) == 0]
    nu_grid = np.arange(n) * (L / n)

    root = np.random.default_rng(opts.seed)
    seeds = [int(s) for s in
             root.integers(0, 2 ** 63 - 1, size=n_seeds, dtype=np.int64)]

    def run(seed: int) -> dict:
        rng = np.random.default_rng(seed)
        u0 = PeriodicField(run_params.d, n, L,
                           rng.uniform(0.0, 1.0, (n,) * run_params.d))
        uf, tr = gradient_flow(u0, run_params)
        m = stripe_metrics(uf, h_grid, nu_grid)
        ef = tr.entries[-1][1]     # the exact energy of uf
        rel_gap = (ef - bench_e) / (abs(bench_e) + 1e-30)
        return {"seed": seed, "energy": ef, "converged": tr.converged,
                "stop": list(tr.stop), "iterations": tr.iterations,
                "evals": list(tr.evals), "grad_norm": list(tr.grad_norm),
                "best_axis": m.best_axis,
                "l1_to_best_stripes": m.l1_to_best_stripes,
                "fourier_anisotropy": m.fourier_anisotropy,
                "energy_gap_to_1d": ef - bench_e,
                "relative_gap": rel_gap,
                "success": bool(m.fourier_anisotropy > ANISOTROPY_THRESHOLD
                                and abs(rel_gap) < GAP_THRESHOLD)}

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(run, seeds))
    else:
        per_seed = [run(s) for s in seeds]

    undercut = min(r["energy"] - bench_e for r in per_seed)
    return {
        "params": {"d": params.d, "p": params.p, "tau": params.tau,
                   "eps": params.eps},
        "k": k, "n": n, "L": L, "h_star": h_star,
        "benchmark_energy": bench_e,
        "anisotropy_threshold": ANISOTROPY_THRESHOLD,
        "gap_threshold": GAP_THRESHOLD,
        "master_seed": opts.seed, "seeds": seeds,
        "runs": per_seed,
        "success_fraction": sum(r["success"] for r in per_seed) / n_seeds,
        "min_energy_minus_benchmark": undercut,
        "kernel": asdict(_kernel.kernel_operator(L, n, run_params)
                          .certificate),
    }
