"""Batch driver: every experiment as a subcommand with reproducible
configuration and machine-readable outputs.

Configuration comes from an optional JSON file (``--config``) overridden by
command-line flags; the fully resolved configuration, including every
default a command used, is written beside every output so a run can be
reproduced bit for bit from its artifacts alone.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import decomposition as _dec
from . import flow as _flow
from . import kernel as _kernel
from . import onedim as _onedim
from .field import (PeriodicField, Profile1D, StripeSpec, make_stripes,
                    read_pfd, write_pfd, write_profile_csv)
from .model import DomainError, ModelParams

FORMAT_VERSION = "1"


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _resolve(cfg_file: dict, cli_values: dict) -> dict:
    """File values fill in CLI values the user left at None; flags win."""
    merged = dict(cfg_file)
    for key, val in cli_values.items():
        if val is not None:
            merged[key] = val
    return merged


def _params(cfg: dict) -> ModelParams:
    """Model parameters from ``cfg``; every default used is written into
    ``cfg`` so the sidecar records it."""
    try:
        return ModelParams(d=int(cfg.setdefault("d", 1)),
                           p=float(cfg.setdefault("p", 3.0)),
                           tau=float(cfg.setdefault("tau", 0.05)),
                           eps=float(cfg.setdefault("eps", 0.05)),
                           L=float(cfg.setdefault("L", 1.0)))
    except (DomainError, ValueError) as exc:
        raise click.ClickException(str(exc))


def _emit(outdir: str, name: str, config: dict, report: dict,
          ok: bool) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"format_version": FORMAT_VERSION, "config": config,
               "report": report, "passed": ok}
    path = out / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=float) + "\n")
    (out / f"{name}_config.json").write_text(
        json.dumps({"format_version": FORMAT_VERSION, **config},
                   indent=2, default=float) + "\n")
    click.echo(f"wrote {path}")
    if not ok:
        click.echo("FAILED checks present", err=True)
        sys.exit(1)


common = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="JSON config file; flags override it."),
    click.option("--output-dir", default=None, help="artifact directory"),
    click.option("--seed", type=int, default=None,
                 help="single 64-bit seed driving all randomness"),
    click.option("--threads", type=int, default=None,
                 help="worker cap of minimize-2d"),
    click.option("-d", type=int, default=None), click.option(
        "-p", type=float, default=None),
    click.option("--tau", type=float, default=None),
    click.option("--eps", type=float, default=None),
]


def with_common(fn):
    for opt in reversed(common):
        fn = opt(fn)
    return fn


@click.group()
def main() -> None:
    """Numerical laboratory for the stripe-forming nonlocal energy."""


# ---------------------------------------------------------------------------
@main.command("kernel-moments")
@with_common
@click.option("--tol", type=float, default=1e-8,
              help="relative tolerance against adaptive quadrature")
def kernel_moments(config_path, output_dir, seed, threads, d, p, tau, eps,
                   tol):
    """Closed-form kernel moments against adaptive quadrature."""
    cfg = _resolve(_load_config(config_path),
                   dict(d=d, p=p, tau=tau, eps=eps, seed=seed,
                        threads=threads, tol=tol))
    cfg.setdefault("seed", 0)
    params = _params(cfg)
    try:
        mom = _kernel.moments(params)
        jc = _kernel.j_c(params)
    except _kernel.DivergentMomentError as exc:
        raise click.ClickException(str(exc))
    from scipy.integrate import quad
    half_quad, _ = quad(lambda t: _kernel.marginal_kernel(t, params),
                        0.0, np.inf)
    moment_quad, _ = quad(
        lambda t: 2.0 * t * _kernel.marginal_kernel(t, params), 0.0, np.inf)
    rep = {"c_tau": mom.c_tau, "j_c": jc, "mass": mom.mass,
           "marginal_constant": mom.marginal_constant,
           "half_mass_marginal": mom.half_mass_marginal,
           "half_mass_quadrature": half_quad,
           "first_moment_quadrature": moment_quad,
           "c_tau_times_tau": mom.c_tau * params.tau}
    delta = max(abs(half_quad - mom.half_mass_marginal) / half_quad,
                abs(moment_quad - mom.c_tau) / moment_quad)
    rep["quadrature_rel_delta"] = delta
    _emit(output_dir or "runs/kernel-moments", "kernel_moments", cfg, rep,
          ok=delta < cfg.setdefault("tol", tol))


# ---------------------------------------------------------------------------
@main.command("optimal-period")
@with_common
@click.option("--h-lo", type=float, default=None)
@click.option("--h-hi", type=float, default=None)
@click.option("--grid", type=int, default=None)
@click.option("-n", type=int, default=None)
@click.option("--tol", type=float, default=None)
def optimal_period(config_path, output_dir, seed, threads, d, p, tau, eps,
                   h_lo, h_hi, grid, n, tol):
    """Golden-section search for the optimal stripe half-period."""
    cfg = _resolve(_load_config(config_path),
                   dict(d=d, p=p, tau=tau, eps=eps, seed=seed,
                        threads=threads, h_lo=h_lo, h_hi=h_hi,
                        grid=grid, n=n, tol=tol))
    cfg.setdefault("seed", 0)
    params = _params(cfg)
    res = _onedim.optimal_period(
        params, (cfg.setdefault("h_lo", 0.3), cfg.setdefault("h_hi", 40.0)),
        grid=int(cfg.setdefault("grid", 12)),
        tol=cfg.setdefault("tol", 1e-3), n=int(cfg.setdefault("n", 512)))
    out = Path(output_dir or "runs/optimal-period")
    out.mkdir(parents=True, exist_ok=True)
    write_profile_csv(out / "profile.csv", res.profile.full())
    rep = json.loads(res.to_json())
    _emit(str(out), "optimal_period", cfg, rep, ok=True)


# ---------------------------------------------------------------------------
@main.command("minimize-1d")
@with_common
@click.option("--half-period", "h", type=float, default=None, required=False)
@click.option("-n", type=int, default=None)
def minimize_1d(config_path, output_dir, seed, threads, d, p, tau, eps, h,
                n):
    """Minimize the 1D energy over the confined class at fixed half-period."""
    cfg = _resolve(_load_config(config_path),
                   dict(d=d, p=p, tau=tau, eps=eps, seed=seed,
                        threads=threads, h=h, n=n))
    cfg.setdefault("seed", 0)
    if cfg.get("h") is None:
        raise click.ClickException("--half-period is required")
    params = _params(cfg)
    res = _onedim.minimize_profile(params, float(cfg["h"]),
                                   n=int(cfg.setdefault("n", 512)))
    out = Path(output_dir or "runs/minimize-1d")
    out.mkdir(parents=True, exist_ok=True)
    write_profile_csv(out / "profile.csv", res.profile.full())
    _onedim.write_trace_csv(out / "trace.csv", res.trace,
                            header="iteration,energy,step")
    rep = {"value": res.value, "iterations": res.iterations,
           "h": cfg["h"], "n": cfg["n"]}
    _emit(str(out), "minimize_1d", cfg, rep, ok=True)


# ---------------------------------------------------------------------------
@main.command("minimize-2d")
@with_common
@click.option("-k", type=int, default=None, help="stripe periods per side")
@click.option("-n", type=int, default=None)
@click.option("--seeds", "n_seeds", type=int, default=None)
@click.option("--anisotropy-threshold", type=float, default=None)
@click.option("--gap-threshold", type=float, default=None)
@click.option("--resume", type=click.Path(exists=True), default=None,
              help="continue the flow from a dumped .pfd field")
@click.option("--allow-incommensurate", is_flag=True, default=False,
              help="label runs at L not a multiple of 2h* as exploratory")
@click.option("--box-side", "L_override", type=float, default=None)
def minimize_2d(config_path, output_dir, seed, threads, d, p, tau, eps, k,
                n, n_seeds, anisotropy_threshold, gap_threshold, resume,
                allow_incommensurate, L_override):
    """Symmetry-breaking experiment: gradient flow from noise seeds."""
    cfg = _resolve(_load_config(config_path),
                   dict(d=d if d is not None else 2, p=p, tau=tau, eps=eps,
                        seed=seed, threads=threads, k=k, n=n,
                        n_seeds=n_seeds,
                        anisotropy_threshold=anisotropy_threshold,
                        gap_threshold=gap_threshold, resume=resume,
                        allow_incommensurate=allow_incommensurate,
                        L=L_override))
    cfg.setdefault("seed", 0)
    cfg.setdefault("d", 2)
    cfg.setdefault("p", 4.0)
    box_side = cfg.get("L")
    params = _params(cfg)
    if box_side is None:
        # L comes from h*; a recorded default would read as --box-side
        del cfg["L"]
    out = Path(output_dir or "runs/minimize-2d")
    out.mkdir(parents=True, exist_ok=True)
    opts = _flow.FlowOptions(seed=int(cfg["seed"]))
    if cfg.get("resume"):
        u0, stored = read_pfd(cfg["resume"])
        run_params = stored if stored is not None else replace(params,
                                                               L=u0.L)
        uf, tr = _flow.gradient_flow(u0, run_params, opts)
        write_pfd(out / "resumed_final.pfd", uf, run_params)
        tr.write_csv(out / "resumed_trace.csv")
        rep = {"resumed_from": cfg["resume"],
               "energy": tr.entries[-1][1],
               "converged": tr.converged, "iterations": tr.iterations}
        _emit(str(out), "minimize_2d", cfg, rep, ok=True)
        return
    if cfg.get("L") is not None and not cfg.get("allow_incommensurate"):
        raise click.ClickException(
            "--box-side requires --allow-incommensurate (periodicity is "
            "only guaranteed when L is a multiple of the optimal period)")
    rep = _flow.symmetry_breaking_experiment(
        params, k=int(cfg.setdefault("k", 1)),
        n=int(cfg.setdefault("n", 64)),
        n_seeds=int(cfg.setdefault("n_seeds", 10)), opts=opts,
        anisotropy_threshold=cfg.setdefault("anisotropy_threshold", 0.95),
        gap_threshold=cfg.setdefault("gap_threshold", 0.02),
        threads=cfg.get("threads"))
    rep["exploratory"] = bool(cfg.get("allow_incommensurate"))
    _emit(str(out), "minimize_2d", cfg, rep, ok=True)


# ---------------------------------------------------------------------------
def _field_from_cfg(cfg: dict, params: ModelParams) -> PeriodicField:
    if cfg.get("field"):
        u, _ = read_pfd(cfg["field"])
        return u
    n = int(cfg.setdefault("n", 32))
    L = params.L
    kind = cfg.setdefault("kind", "random")
    if kind == "random":
        rng = np.random.default_rng(int(cfg.setdefault("seed", 0)))
        return PeriodicField(params.d, n, L,
                             rng.uniform(0, 1, (n,) * params.d))
    if kind == "stripe":
        h = cfg.setdefault("h", L / 4.0)
        return make_stripes(StripeSpec(1, float(h), 0.0), L, n, params.d)
    raise click.ClickException(f"unknown field kind {kind!r}")


@main.command("verify-decomposition")
@with_common
@click.option("--field", "field_path", type=click.Path(exists=True),
              default=None, help=".pfd input field")
@click.option("--kind", type=click.Choice(["random", "stripe"]),
              default=None)
@click.option("-n", type=int, default=None)
@click.option("--box-side", "L_override", type=float, default=None)
@click.option("--tol-slack", type=float, default=1e-8)
def verify_decomposition(config_path, output_dir, seed, threads, d, p, tau,
                         eps, field_path, kind, n, L_override, tol_slack):
    """Lower-bound decomposition report; fails on negative slack."""
    cfg = _resolve(_load_config(config_path),
                   dict(d=d if d is not None else 2, p=p, tau=tau, eps=eps,
                        seed=seed, threads=threads,
                        field=field_path, kind=kind, n=n, L=L_override,
                        tol_slack=tol_slack))
    cfg.setdefault("seed", 0)
    cfg.setdefault("d", 2)
    cfg.setdefault("p", 4.0)
    params = _params(cfg)
    u = _field_from_cfg(cfg, params)
    params = replace(params, d=u.dims, L=u.L)
    rep_obj = _dec.lower_bound_report(u, params)
    rep = json.loads(rep_obj.to_json())
    rep["delta_grad"] = _dec.default_delta_grad(u)
    ok = rep_obj.slack >= -cfg.setdefault("tol_slack", tol_slack)
    _emit(output_dir or "runs/verify-decomposition", "verify_decomposition",
          cfg, rep, ok=ok)


# ---------------------------------------------------------------------------
@main.command("verify-el")
@with_common
@click.option("--half-period", "h", type=float, default=None)
@click.option("-n", type=int, default=None)
@click.option("--tol-ineq", type=float, default=1e-6)
def verify_el(config_path, output_dir, seed, threads, d, p, tau, eps, h, n,
              tol_ineq):
    """Euler-Lagrange diagnostics on the converged 1D minimizer at (n, 2n)."""
    cfg = _resolve(_load_config(config_path),
                   dict(d=d, p=p, tau=tau, eps=eps, seed=seed,
                        threads=threads, h=h, n=n,
                        tol_ineq=tol_ineq))
    cfg.setdefault("seed", 0)
    params = _params(cfg)
    n0 = int(cfg.setdefault("n", 512))
    h0 = float(cfg.setdefault("h", 1.58))
    rep = {"n": [], "l2_residual": [], "first_integral_gap4": [],
           "first_integral_gap2": [], "gamma3_ok": []}
    for nn in (n0, 2 * n0):
        res = _onedim.minimize_profile(params, h0, n=nn)
        diag = _onedim.el_residual(None, res.profile.full(), params)
        dx = 2.0 * h0 / nn
        rep["n"].append(nn)
        rep["l2_residual"].append(
            float(np.sqrt(np.nansum(diag.residual ** 2) * dx)))
        rep["first_integral_gap4"].append(diag.first_integral_gap4)
        rep["first_integral_gap2"].append(diag.first_integral_gap2)
        rep["gamma3_ok"].append(diag.gamma3_ok)
    fi = rep["first_integral_gap4"]
    rep["first_integral_ratio"] = fi[0] / fi[1] if fi[1] else np.inf
    ok = rep["first_integral_ratio"] >= 1.8 and all(rep["gamma3_ok"])
    _emit(output_dir or "runs/verify-el", "verify_el", cfg, rep, ok=ok)


# ---------------------------------------------------------------------------
@main.command("gamma-study")
@with_common
@click.option("--half-period", "h", type=float, default=None)
@click.option("-n", type=int, default=None)
@click.option("--m-schedule", default=None,
              help="comma-separated coefficient caps, e.g. 1,10,100,1000")
def gamma_study(config_path, output_dir, seed, threads, d, p, tau, eps, h,
                n, m_schedule):
    """Penalized coefficient family: optimal gamma collapses to 1."""
    cfg = _resolve(_load_config(config_path),
                   dict(d=d, p=p, tau=tau, eps=eps, seed=seed,
                        threads=threads, h=h, n=n,
                        m_schedule=m_schedule))
    cfg.setdefault("seed", 0)
    params = _params(cfg)
    sched = tuple(float(t) for t in str(
        cfg.setdefault("m_schedule", "1,10,100,1000")).split(","))
    h0 = float(cfg.setdefault("h", 1.58))
    n0 = int(cfg.setdefault("n", 8192))
    rep = _onedim.gamma_limit_study(params, h0, m_schedule=sched, n=n0)
    out = Path(output_dir or "runs/gamma-study")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "margins.csv", "w") as fh:
        fh.write("m,value,sup_gamma_minus_1,measure_gamma_above\n")
        for row in zip(rep["m"], rep["value"], rep["sup_gamma_minus_1"],
                       rep["measure_gamma_above"]):
            fh.write(",".join(repr(float(t)) for t in row) + "\n")
    ok = (rep["measure_gamma_above"][-1] <= rep["grid_cell"]
          and rep["strict_margin"] > 0)
    _emit(str(out), "gamma_study", cfg, rep, ok=ok)


# ---------------------------------------------------------------------------
@main.command("rp-check")
@with_common
@click.option("--profiles", type=int, default=None,
              help="number of random crossing profiles")
@click.option("-n", type=int, default=None)
@click.option("--tol-gap", type=float, default=1e-8)
def rp_check(config_path, output_dir, seed, threads, d, p, tau, eps,
             profiles, n, tol_gap):
    """Reflection positivity and chessboard estimates on random profiles."""
    cfg = _resolve(_load_config(config_path),
                   dict(d=d, p=p, tau=tau, eps=eps, seed=seed,
                        threads=threads, profiles=profiles, n=n,
                        tol_gap=tol_gap))
    cfg.setdefault("seed", 0)
    params = _params(cfg)
    rng = np.random.default_rng(int(cfg["seed"]))
    n0 = int(cfg.setdefault("n", 64))
    count = int(cfg.setdefault("profiles", 25))
    worst_rp = np.inf
    for _ in range(count):
        g = np.clip(0.5 + 0.4 * np.sin(2 * np.pi * np.arange(n0) / n0
                                       + rng.uniform(0, 2 * np.pi))
                    + 0.05 * rng.standard_normal(n0), 0, 1)
        i0 = int(rng.integers(1, n0 - 1))
        g[i0] = 0.5
        prof = Profile1D(n0, 2.0, g)
        _, _, gap = _onedim.reflection_positivity_check(
            prof, i0 * 2.0 / n0, params, N=2)
        worst_rp = min(worst_rp, gap)
    worst_cb = np.inf
    for _ in range(max(count // 2, 1)):
        arcs = int(rng.integers(2, 5))
        M = 80 * arcs
        x = np.linspace(0.0, float(arcs), M + 1)
        amp = rng.uniform(0.2, 0.45)
        g = 0.5 + amp * np.sin(np.pi * x)
        _, _, gap = _onedim.chessboard_check(
            None, g, [float(t) for t in range(arcs + 1)], params,
            x_grid=x, tol=1e-12)
        worst_cb = min(worst_cb, gap)
    rep = {"profiles": count, "worst_rp_gap": float(worst_rp),
           "worst_chessboard_gap": float(worst_cb)}
    tol = cfg.setdefault("tol_gap", tol_gap)
    _emit(output_dir or "runs/rp-check", "rp_check", cfg, rep,
          ok=worst_rp >= -tol and worst_cb >= -tol)


if __name__ == "__main__":
    main()
