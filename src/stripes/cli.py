"""Batch driver: every experiment as a subcommand with reproducible
configuration and machine-readable outputs.

Each command has one table of defaults.  Its configuration resolves in one
place, defaults < ``--config`` file < flags given, and a config key that
is not in the command's table is an error.  The fully resolved
configuration is written beside every output, so ``--config <sidecar>``
reruns a command bit for bit from its artifacts alone.  Next to the
report, each output carries an ``environment`` block: the python, numpy
and scipy versions and the command's wall time, which differ between
reruns while the report does not.
"""
from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import asdict
from importlib.metadata import version
from pathlib import Path

import click
import numpy as np

from . import decomposition as _dec
from . import flow as _flow
from . import kernel as _kernel
from . import onedim as _onedim
from .field import (PeriodicField, Profile1D, StripeSpec, make_stripes,
                    read_pfd, write_pfd, write_profile_csv)
from .model import ModelParams

FORMAT_VERSION = "1"

# model defaults of the 1D commands; minimize-2d and verify-decomposition
# default to d=2, p=4
_MODEL = {"d": 1, "p": 3.0, "tau": 0.05, "eps": 0.05, "L": 1.0}

_MODEL_FLAGS = (click.option("-d", type=int), click.option("-p", type=float),
                click.option("--tau", type=float),
                click.option("--eps", type=float))
_SEED = click.option("--seed", type=int,
                     help="single 64-bit seed driving all randomness")
_N = click.option("-n", type=int)
_HALF_PERIOD = click.option("--half-period", "h", type=float)
# kernel-moments passes when closed form and quadrature agree to this
QUADRATURE_TOL = 1e-8
# rounding may take the slicing slack and the rp-check gaps this far below 0
ROUNDING_TOL = 1e-8


@click.group()
def main() -> None:
    """Numerical laboratory for the stripe-forming nonlocal energy."""


def _read_config(path: str | None, name: str, defaults: dict) -> dict:
    """The ``--config`` file's values; keys outside ``defaults`` fail."""
    if path is None:
        return {}
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise click.ClickException(f"{path}: expected a JSON object")
    version = values.pop("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise click.ClickException(
            f"{path}: format_version {version!r}, expected {FORMAT_VERSION!r}")
    unknown = sorted(set(values) - set(defaults))
    if unknown:
        raise click.ClickException(
            f"{name} takes no config key {', '.join(map(repr, unknown))} "
            f"(in {path})")
    return values


def _command(name: str, defaults: dict, *flags):
    """Register ``body(cfg, out) -> (report, passed)`` as command ``name``.

    The command takes ``--config``, ``--output-dir``, the model flags and
    ``flags``; each flag is stored under its parameter name, which must be
    a key of ``defaults``.  ``cfg`` is ``defaults`` updated by the config
    file and then by the flags given, and ``out`` the output directory
    (``runs/<name>`` unless given).  A ValueError of the library, whose
    message names the value it rejects, and an ``onedim.ConvergenceError``
    (a period search over a range without an interior minimum) are
    one-line errors (exit 1).
    """
    def register(body):
        def command(config_path, output_dir, **given):
            start = time.perf_counter()
            out = Path(output_dir or f"runs/{name}")
            try:
                cfg = {**defaults,
                       **_read_config(config_path, name, defaults),
                       **{k: v for k, v in given.items() if v is not None}}
                out.mkdir(parents=True, exist_ok=True)
                report, ok = body(cfg, out)
            except (ValueError, _onedim.ConvergenceError) as exc:
                raise click.ClickException(str(exc)) from exc
            _emit(out, name.replace("-", "_"), cfg, report, ok,
                  time.perf_counter() - start)

        options = (click.option("--config", "config_path",
                                type=click.Path(exists=True),
                                help="JSON config file; flags override it."),
                   click.option("--output-dir", help="artifact directory"),
                   *_MODEL_FLAGS, *flags)
        for opt in reversed(options):
            command = opt(command)
        cmd = main.command(name, help=body.__doc__)(command)
        assert {p.name for p in cmd.params} <= {"config_path", "output_dir",
                                                *defaults}, name
        return cmd
    return register


def _params(cfg: dict) -> ModelParams:
    # minimize-2d takes L from the run (2k h* or the resumed field), so its
    # table has no L and ModelParams gets a placeholder it never uses
    return ModelParams(d=int(cfg["d"]), p=float(cfg["p"]),
                       tau=float(cfg["tau"]), eps=float(cfg["eps"]),
                       L=float(cfg.get("L", 1.0)))


def _read_field(path: str, cfg: dict) -> tuple[PeriodicField, ModelParams]:
    """A .pfd field with the params stored in its header, or with those of
    ``cfg`` at the field's d and L when the header has none."""
    u, stored = read_pfd(path)
    return u, (stored if stored is not None
               else _params({**cfg, "d": u.dims, "L": u.L}))


def _emit(out: Path, name: str, config: dict, report: dict, ok: bool,
          elapsed: float) -> None:
    # scipy's version comes from its installed metadata: no scipy import
    environment = {"python": platform.python_version(),
                   "numpy": np.__version__, "scipy": version("scipy"),
                   "elapsed_s": elapsed}
    payload = {"format_version": FORMAT_VERSION, "config": config,
               "report": report, "environment": environment,
               "passed": bool(ok)}
    path = out / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=float) + "\n")
    (out / f"{name}_config.json").write_text(
        json.dumps({"format_version": FORMAT_VERSION, **config},
                   indent=2, default=float) + "\n")
    click.echo(f"wrote {path}")
    if not ok:
        click.echo("FAILED checks present", err=True)
        sys.exit(1)


def _marginal_certificate(params: ModelParams, h: float, n: int) -> dict:
    """The certificate of the 1D marginal table on the period 2h."""
    return asdict(_kernel.marginal_operator(2.0 * h, n, params).certificate)


def _resolution(params: ModelParams, dx: float) -> dict:
    """A report's grid spacing over alpha, and whether it exceeds 1: then
    the interface layer, of width ~alpha, is not resolved."""
    ratio = dx / params.alpha
    return {"dx_over_alpha": ratio, "unresolved": bool(ratio > 1.0)}


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
@_command("kernel-moments", _MODEL)
def kernel_moments(cfg, out):
    """Closed-form kernel moments against adaptive quadrature."""
    params = _params(cfg)
    mom = _kernel.moments(params)
    jc = _kernel.j_c(params)
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
    # relative to the quadratures' magnitudes, so that a quadrature of the
    # wrong sign fails the check
    delta = max(abs(half_quad - mom.half_mass_marginal) / abs(half_quad),
                abs(moment_quad - mom.c_tau) / abs(moment_quad))
    rep["quadrature_rel_delta"] = delta
    return rep, delta < QUADRATURE_TOL


# ---------------------------------------------------------------------------
@_command("optimal-period",
          {**_MODEL, "h_lo": 0.3, "h_hi": 40.0, "grid": 12, "n": 512},
          click.option("--h-lo", type=float),
          click.option("--h-hi", type=float),
          click.option("--grid", type=int), _N)
def optimal_period(cfg, out):
    """Golden-section search for the optimal stripe half-period."""
    params, n = _params(cfg), int(cfg["n"])
    res = _onedim.optimal_period(params, (cfg["h_lo"], cfg["h_hi"]),
                                 grid=int(cfg["grid"]), n=n)
    write_profile_csv(out / "profile.csv", res.profile.full())
    return {"h_star": res.h_star, "c_star": res.c_star,
            "trace": [list(t) for t in res.trace],
            "stop": res.stop, "evals": res.evals,
            "iterations": list(res.iterations),
            **_resolution(params, 2.0 * res.h_star / n),
            "kernel": _marginal_certificate(params, res.h_star, n)}, True


# ---------------------------------------------------------------------------
@_command("minimize-1d", {**_MODEL, "h": None, "n": 512}, _HALF_PERIOD, _N)
def minimize_1d(cfg, out):
    """Minimize the 1D energy over the confined class at fixed half-period."""
    if cfg["h"] is None:
        raise click.ClickException("--half-period is required")
    params, h, n = _params(cfg), float(cfg["h"]), int(cfg["n"])
    res = _onedim.minimize_profile(params, h, n=n)
    write_profile_csv(out / "profile.csv", res.profile.full())
    _write_csv(out / "trace.csv", "iteration,energy,step", res.trace)
    return {"value": res.value, "iterations": res.iterations,
            "stop": res.stop, "evals": res.evals, "h": cfg["h"],
            "n": cfg["n"], **_resolution(params, 2.0 * h / n),
            "kernel": _marginal_certificate(params, h, n)}, True


# ---------------------------------------------------------------------------
@_command("minimize-2d",
          {"d": 2, "p": 4.0, "tau": 0.05, "eps": 0.05, "seed": 0,
           "threads": None, "k": 1, "n": 64, "n_seeds": 10, "resume": None},
          _SEED,
          click.option("--threads", type=int,
                       help="worker threads (default 1)"),
          click.option("-k", type=int,
                       help="stripe periods per side of the box L = 2k h*"),
          _N, click.option("--seeds", "n_seeds", type=int),
          click.option("--resume", type=click.Path(exists=True),
                       help="continue the flow from a dumped .pfd field"))
def minimize_2d(cfg, out):
    """Symmetry-breaking experiment: gradient flow from noise seeds."""
    params = _params(cfg)
    if cfg["resume"]:
        u0, run_params = _read_field(cfg["resume"], cfg)
        uf, tr = _flow.gradient_flow(u0, run_params)
        write_pfd(out / "resumed_final.pfd", uf, run_params)
        tr.write_csv(out / "resumed_trace.csv")
        op = _kernel.kernel_operator(u0.L, u0.n, run_params)
        return {"resumed_from": cfg["resume"],
                "energy": tr.entries[-1][1],
                "converged": tr.converged, "stop": list(tr.stop),
                "evals": list(tr.evals), "grad_norm": list(tr.grad_norm),
                "iterations": tr.iterations,
                **_resolution(run_params, u0.h_grid),
                "kernel": asdict(op.certificate)}, True
    rep = _flow.symmetry_breaking_experiment(
        params, k=int(cfg["k"]), n=int(cfg["n"]), n_seeds=int(cfg["n_seeds"]),
        opts=_flow.FlowOptions(seed=int(cfg["seed"])), threads=cfg["threads"])
    return {**rep, **_resolution(params, rep["L"] / rep["n"])}, True


# ---------------------------------------------------------------------------
def _field_from_cfg(cfg: dict) -> tuple[PeriodicField, ModelParams]:
    if cfg["field"]:
        return _read_field(cfg["field"], cfg)
    params = _params(cfg)
    n, L = int(cfg["n"]), params.L
    if cfg["kind"] == "random":
        rng = np.random.default_rng(int(cfg["seed"]))
        return PeriodicField(params.d, n, L,
                             rng.uniform(0, 1, (n,) * params.d)), params
    if cfg["kind"] == "stripe":     # half-period L/4: two periods per side
        return make_stripes(StripeSpec(1, L / 4.0, 0.0), L, n,
                            params.d), params
    raise click.ClickException(f"unknown field kind {cfg['kind']!r}")


@_command("verify-decomposition",
          {"d": 2, "p": 4.0, "tau": 0.05, "eps": 0.05, "L": 1.0, "seed": 0,
           "field": None, "kind": "random", "n": 32},
          _SEED,
          click.option("--field", type=click.Path(exists=True),
                       help=".pfd input field"),
          click.option("--kind", type=click.Choice(["random", "stripe"])),
          _N, click.option("--box-side", "L", type=float))
def verify_decomposition(cfg, out):
    """Lower-bound decomposition report; fails on slack < -ROUNDING_TOL.  A
    --field file is evaluated with the params stored in its header."""
    u, params = _field_from_cfg(cfg)
    rep_obj = _dec.lower_bound_report(u, params)
    rep = asdict(rep_obj)
    rep["delta_grad"] = _dec.default_delta_grad(u)
    rep.update(_resolution(params, u.h_grid))
    rep["kernel"] = asdict(_kernel.kernel_operator(u.L, u.n,
                                                   params).certificate)
    return rep, rep_obj.slack >= -ROUNDING_TOL


# ---------------------------------------------------------------------------
@_command("verify-el", {**_MODEL, "h": 1.58, "n": 512}, _HALF_PERIOD, _N)
def verify_el(cfg, out):
    """Euler-Lagrange diagnostics on the converged 1D minimizer at (n, 2n)."""
    params = _params(cfg)
    n0, h0 = int(cfg["n"]), float(cfg["h"])
    rep = {"n": [], "l2_residual": [], "residual_samples": [],
           "first_integral_gap4": [], "first_integral_gap2": [],
           "gamma3_ok": [], "stop": [], "evals": [], "dx_over_alpha": [],
           "unresolved": [], "kernel": []}
    for nn in (n0, 2 * n0):
        res = _onedim.minimize_profile(params, h0, n=nn)
        diag = _onedim.el_residual(None, res.profile.full(), params)
        dx = 2.0 * h0 / nn
        rep["n"].append(nn)
        rep["l2_residual"].append(
            float(np.sqrt(np.nansum(diag.residual ** 2) * dx)))
        # the residual is NaN off {delta < g < 1 - delta}; say how many
        # samples the l2 norm covers
        rep["residual_samples"].append(
            int(np.count_nonzero(np.isfinite(diag.residual))))
        rep["first_integral_gap4"].append(diag.first_integral_gap4)
        rep["first_integral_gap2"].append(diag.first_integral_gap2)
        rep["gamma3_ok"].append(diag.gamma3_ok)
        rep["stop"].append(res.stop)
        rep["evals"].append(res.evals)
        for key, value in _resolution(params, 2.0 * h0 / nn).items():
            rep[key].append(value)
        rep["kernel"].append(_marginal_certificate(params, h0, nn))
    fi = rep["first_integral_gap4"]
    rep["first_integral_ratio"] = fi[0] / fi[1] if fi[1] else np.inf
    return rep, rep["first_integral_ratio"] >= 1.8 and all(rep["gamma3_ok"])


# ---------------------------------------------------------------------------
@_command("gamma-study",
          {**_MODEL, "h": 1.58, "n": 8192, "m_schedule": "1,10,100,1000"},
          _HALF_PERIOD, _N,
          click.option("--m-schedule",
                       help="comma-separated coefficient caps, "
                            "e.g. 1,10,100,1000"))
def gamma_study(cfg, out):
    """Penalized coefficient family: optimal gamma collapses to 1."""
    try:
        sched = tuple(float(t) for t in str(cfg["m_schedule"]).split(","))
    except ValueError:
        raise click.ClickException("--m-schedule must be comma-separated "
                                   f"numbers, got {cfg['m_schedule']!r}")
    params, h, n = _params(cfg), float(cfg["h"]), int(cfg["n"])
    rep = _onedim.gamma_limit_study(params, h, m_schedule=sched, n=n)
    rep.update(_resolution(params, 2.0 * h / n))
    rep["kernel"] = _marginal_certificate(params, h, n)
    _write_csv(out / "margins.csv",
               "m,value,sup_gamma_minus_1,measure_gamma_above",
               zip(rep["m"], rep["value"], rep["sup_gamma_minus_1"],
                   rep["measure_gamma_above"]))
    return rep, (rep["measure_gamma_above"][-1] <= rep["grid_cell"]
                 and rep["strict_margin"] > 0)


# ---------------------------------------------------------------------------
@_command("rp-check",
          {**_MODEL, "seed": 0, "profiles": 25, "n": 64},
          _SEED,
          click.option("--profiles", type=int,
                       help="number of random crossing profiles"), _N)
def rp_check(cfg, out):
    """Reflection positivity and chessboard estimates on random profiles."""
    params = _params(cfg)
    rng = np.random.default_rng(int(cfg["seed"]))
    n0, count = int(cfg["n"]), int(cfg["profiles"])
    if n0 < 3:              # a crossing sample strictly inside the period
        raise click.ClickException(f"n must be >= 3, got {n0}")
    if count < 1:
        raise click.ClickException(f"profiles must be >= 1, got {count}")
    worst_rp = np.inf
    for _ in range(count):
        g = np.clip(0.5 + 0.4 * np.sin(2 * np.pi * np.arange(n0) / n0
                                       + rng.uniform(0, 2 * np.pi))
                    + 0.05 * rng.standard_normal(n0), 0, 1)
        i0 = int(rng.integers(1, n0 - 1))
        g[i0] = 0.5
        prof = Profile1D(n0, 2.0, g)
        _, _, gap = _onedim.reflection_positivity_check(
            prof, i0 * 2.0 / n0, params)
        worst_rp = min(worst_rp, gap)
    worst_cb = np.inf
    for _ in range(max(count // 2, 1)):
        arcs = int(rng.integers(2, 5))
        M = 80 * arcs
        x = np.linspace(0.0, float(arcs), M + 1)
        amp = rng.uniform(0.2, 0.45)
        g = 0.5 + amp * np.sin(np.pi * x)
        _, _, gap = _onedim.chessboard_check(
            None, g, [float(t) for t in range(arcs + 1)], params, x_grid=x)
        worst_cb = min(worst_cb, gap)
    rep = {"profiles": count, "worst_rp_gap": float(worst_rp),
           "worst_chessboard_gap": float(worst_cb)}
    return rep, worst_rp >= -ROUNDING_TOL and worst_cb >= -ROUNDING_TOL


if __name__ == "__main__":
    main()
