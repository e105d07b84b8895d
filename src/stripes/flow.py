"""Projected gradient flow in d >= 2, stripe diagnostics, and the
symmetry-breaking experiment.

The descent direction smooths the 1-norm in the interfacial term with
``sqrt(D_i^2 + kappa^2)``; line-search acceptance and all reported numbers
use the exact (unsmoothed) energy, so the monotone-decrease invariant
refers to the true functional.  The line search halves a rejected step, and
a stage ends on ``line_search`` after solvers.MAX_HALVINGS rejected trials
or as soon as solvers.FLAT_TRIALS trials in a row return the current energy
exactly, since then the energy no longer resolves the step.  A flow builds
one ``energy._FieldObjective`` at its default kernel truncation, which
resolves the kernel operator and the prefactors once, and hands its
``energy`` and ``grad`` on raw arrays to ``solvers.projected_bb``: each of
the KAPPA_STAGES kappa stages, starting at KAPPA, runs it with the fixed
STEP0, TOL_ENERGY and TOL_GRAD, and the trace keeps why each stage stopped.
The last trace entry of a flow is the exact energy of the field it returns,
so the benchmark and the experiment's runs report it without evaluating it
again.  The stripe search rasterizes each candidate stripe profile once and
compares it with the field by broadcasting.  Without a given h*, the
experiment takes it from ``onedim.optimal_period`` over H_RANGE at SEARCH_N
samples.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import energy as _energy
from . import onedim as _onedim
from .field import (PeriodicField, StripeSpec, check_stripe_period,
                    make_stripes, stripe_line)
from .model import ModelParams
from .solvers import projected_bb


KAPPA = 1e-3        # smoothing scale of the first stage
KAPPA_STAGES = 3    # continuation: kappa -> kappa/10 per stage
STEP0 = 1.0
TOL_ENERGY = 1e-12
TOL_GRAD = 1e-6
# the period search that fixes h* when the experiment is not given one
SEARCH_N = 512
H_RANGE = (0.3, 40.0)


@dataclass(frozen=True)
class FlowOptions:
    max_iter: int = 5000
    trace_every: int = 10
    seed: int = 0


@dataclass(frozen=True)
class FlowTrace:
    entries: tuple          # (iteration, energy, step) triples
    converged: bool
    iterations: int
    kappa_final: float
    stop: tuple             # solvers.STOP_REASONS entry of each kappa stage

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

    def to_json(self) -> str:
        return json.dumps({
            "best_axis": self.best_axis, "best_h": self.best_h,
            "best_nu": self.best_nu,
            "l1_to_best_stripes": self.l1_to_best_stripes,
            "fourier_anisotropy": self.fourier_anisotropy})


# ---------------------------------------------------------------------------
# gradient of the energy with the smoothed 1-norm
# ---------------------------------------------------------------------------

def energy_gradient(u: PeriodicField, params: ModelParams,
                    kappa: float = KAPPA, tol: float = 1e-7,
                    shells: int | None = None) -> np.ndarray:
    """Partial derivatives dE/du_j of the discrete energy whose interfacial
    term uses the smoothed anisotropic norm sum_i sqrt(D_i^2 + kappa^2).

    Forward differences D_i live on cell faces; the adjoint is the backward
    difference, so the returned array is the exact gradient of the smoothed
    discrete energy (the nonlocal part is exact, no smoothing).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return _energy._FieldObjective.of(u, params, tol, shells).grad(u.values,
                                                                   kappa)


# ---------------------------------------------------------------------------
# projected gradient flow
# ---------------------------------------------------------------------------

def gradient_flow(u0: PeriodicField, params: ModelParams,
                  opts: FlowOptions | None = None
                  ) -> tuple[PeriodicField, FlowTrace]:
    """Projected descent of the exact energy with box projection onto [0, 1].

    Backtracking guarantees a strictly monotone energy trace; the smoothing
    scale starts at KAPPA and follows the continuation schedule
    kappa -> kappa / 10 after each stage, KAPPA_STAGES times in total.
    """
    opts = opts or FlowOptions()
    obj = _energy._FieldObjective.of(u0, params)
    v = np.array(u0.values, dtype=float)
    e = obj.energy(v)
    trace = [(0, e, STEP0)]
    stops = []
    it = 0
    converged = False
    kappa = KAPPA
    for _ in range(KAPPA_STAGES):
        res = projected_bb(v, e, obj.energy, partial(obj.grad, kappa=kappa),
                           0.0, 1.0, step0=STEP0, max_iter=opts.max_iter,
                           tol_grad=TOL_GRAD, tol_energy=TOL_ENERGY,
                           trace_every=opts.trace_every, start=it)
        v, e, it, converged = res.x, res.energy, res.iterations, res.converged
        trace.extend(res.trace)
        stops.append(res.stop)
        kappa /= 10.0
    trace.append((it, e, 0.0))
    return (u0.with_values(v),
            FlowTrace(tuple(trace), converged, it, kappa * 10.0,
                      tuple(stops)))


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
    nu_grid; the spectral anisotropy is reported for the minimizing axis.
    """
    d, n, L = u.dims, u.n, u.L
    vol = u.h_grid ** d
    lines = []
    for h in h_grid:
        h = float(h)
        check_stripe_period(h, L, n)
        for nu in nu_grid:
            if 0 <= nu < 2 * h:    # offsets repeat modulo the full period
                lines.append((h, float(nu), stripe_line(h, float(nu), L, n)))
    best = (np.inf, 1, np.nan, np.nan)
    for ax in range(d):
        shape = [1] * d
        shape[ax] = n
        for h, nu, line in lines:
            dist = float(np.sum(np.abs(u.values - line.reshape(shape)))
                         * vol) / L ** d
            if dist < best[0]:
                best = (dist, ax + 1, h, nu)
    dist, ax, h, nu = best
    return StripeMetrics(best_axis=ax, best_h=h, best_nu=nu,
                         l1_to_best_stripes=dist,
                         fourier_anisotropy=fourier_anisotropy(u, ax))


# ---------------------------------------------------------------------------
# symmetry-breaking experiment
# ---------------------------------------------------------------------------

def _thread_count(threads: int | None) -> int:
    """Worker threads: ``threads`` when given, else the STRIPES_THREADS
    environment variable, else 1.  A value that is not a positive integer
    raises ValueError naming it and where it came from."""
    if threads is None:
        env = os.environ.get("STRIPES_THREADS")
        if not env:
            return 1
        source = f"STRIPES_THREADS={env!r}"
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"{source} is not an integer") from None
    else:
        source = f"threads={threads!r}"
    if threads < 1:
        raise ValueError(f"{source}: the thread count must be >= 1")
    return threads


def tiled_stripe_benchmark(params: ModelParams, h_star: float, k: int,
                           n: int, opts: FlowOptions | None = None
                           ) -> tuple[PeriodicField, float]:
    """Best one-dimensional competitor on the n^d flow grid: the binary
    k-fold stripe tiling of half-period h*, polished by the same gradient
    flow the experiment uses (it stays one-dimensional by equivariance), so
    benchmark and runs share one lattice energy."""
    if n % (2 * k):
        raise ValueError("2k must divide n so periods align with the grid")
    L = 2.0 * k * h_star
    u0 = make_stripes(StripeSpec(1, h_star, 0.0), L, n, params.d)
    u, tr = gradient_flow(u0, params, opts)
    return u, tr.entries[-1][1]


def symmetry_breaking_experiment(params: ModelParams, k: int = 1,
                                 n: int = 64, n_seeds: int = 10,
                                 opts: FlowOptions | None = None,
                                 h_star: float | None = None,
                                 anisotropy_threshold: float = 0.95,
                                 gap_threshold: float = 0.02,
                                 threads: int | None = None) -> dict:
    """Gradient-flow runs from uniform-noise seeds on the torus of side
    L = 2 k h*, scored against the k-fold tiling of the 1D optimum.

    Returns a JSON-serializable report with per-seed metrics, the success
    fraction (anisotropy and relative energy gap inside the thresholds), and
    every input needed to reproduce the run bit for bit.
    """
    opts = opts or FlowOptions()
    workers = _thread_count(threads)
    if h_star is None:
        search = _onedim.optimal_period(params, H_RANGE, n=SEARCH_N)
        h_star = search.h_star
    L = 2.0 * k * h_star
    run_params = replace(params, L=L)

    bench_u, bench_e = tiled_stripe_benchmark(run_params, h_star, k, n,
                                              opts=opts)
    h_grid = [L / (2 * j) for j in range(1, max(2 * k + 2, 4))
              if (n * (2 * (L / (2 * j))) / L) % 1 == 0
              and n % (2 * j) == 0]
    nu_grid = np.arange(n) * (L / n)

    root = np.random.default_rng(opts.seed)
    seeds = [int(s) for s in
             root.integers(0, 2 ** 63 - 1, size=n_seeds, dtype=np.int64)]

    def run(seed: int) -> dict:
        rng = np.random.default_rng(seed)
        u0 = PeriodicField(run_params.d, n, L,
                           rng.uniform(0.0, 1.0, (n,) * run_params.d))
        uf, tr = gradient_flow(u0, run_params, opts)
        m = stripe_metrics(uf, h_grid, nu_grid)
        ef = tr.entries[-1][1]     # the exact energy of uf
        rel_gap = (ef - bench_e) / (abs(bench_e) + 1e-30)
        return {"seed": seed, "energy": ef, "converged": tr.converged,
                "stop": list(tr.stop), "iterations": tr.iterations,
                "best_axis": m.best_axis,
                "l1_to_best_stripes": m.l1_to_best_stripes,
                "fourier_anisotropy": m.fourier_anisotropy,
                "energy_gap_to_1d": ef - bench_e,
                "relative_gap": rel_gap,
                "success": bool(m.fourier_anisotropy > anisotropy_threshold
                                and abs(rel_gap) < gap_threshold)}

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(run, seeds))
    else:
        per_seed = [run(s) for s in seeds]

    undercut = min(r["energy"] - bench_e for r in per_seed)
    report = {
        "params": {"d": params.d, "p": params.p, "tau": params.tau,
                   "eps": params.eps},
        "k": k, "n": n, "L": L, "h_star": h_star,
        "benchmark_energy": bench_e,
        "anisotropy_threshold": anisotropy_threshold,
        "gap_threshold": gap_threshold,
        "master_seed": opts.seed, "seeds": seeds,
        "runs": per_seed,
        "success_fraction": sum(r["success"] for r in per_seed) / n_seeds,
        "min_energy_minus_benchmark": undercut,
    }
    return report
