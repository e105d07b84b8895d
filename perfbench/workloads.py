"""The three benchmark workloads: inputs, cold set-up, solve, output checks.

Each workload runs public ``stripes`` functions with the arguments the CLI
subcommands pass.  A workload is a fixed mix of a few short units (its
input classes, each well under a second to solve); one pass solves every
unit once.  A run makes as many passes as fit in its time, starting the
pass at unit ``seed % classes``, so every run times the same input mix and
the seed sets its order; this keeps the unit-to-unit cost differences of
the flows out of the run-to-run spread.  Reference values for every unit
were frozen from the library by ``freeze.py`` and live in
``reference.json``; the checks compare each output with them.

A workload's ``solve`` returns plain data (lists, floats, booleans) so that
the checks, and the tests that corrupt outputs, need no library objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from stripes import decomposition, field, flow, kernel, onedim
from stripes.model import ModelParams

# reference parameter sets of the test suite: PS1 (d=1) and PS2 (d=2)
PS1 = ModelParams(d=1, p=3.0, tau=0.05, eps=0.05, L=1.0)
PS2 = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
# the 1D optimal half-period of PS2 at n=512, passed as a fixed input so
# that symbreak2d runs no 1D search
H_STAR = 1.5117819735288371
# frozen values of test_optimal_period_reference_point (PS1, n=512)
PERIOD_H_STAR = 1.5806052254537448
PERIOD_C_STAR = 0.7734205422494789

REL_ENERGY = 1e-6     # energies of runs that follow the same trajectory
REL_REPORT = 1e-8     # closed-form sums of the slicing report


def _close(value: float, ref: float, rel: float) -> bool:
    return bool(abs(value - ref) <= rel * max(abs(ref), 1e-300))


# ---------------------------------------------------------------------------
# symbreak2d: the multi-seed symmetry-breaking experiment at n=64
# ---------------------------------------------------------------------------

# (n, flow runs per unit); a unit is one experiment, its class the master
# seed, so a pass of the 4 classes makes 8 flow runs
SYMBREAK_SIZES = {"full": (64, 2), "smoke": (16, 2)}


def symbreak2d_inputs(cls: int, size: str) -> dict:
    n, n_seeds = SYMBREAK_SIZES[size]
    return {"params": PS2, "n": n, "n_seeds": n_seeds, "L": 2.0 * H_STAR,
            "opts": flow.FlowOptions(seed=cls)}


def symbreak2d_setup(inp: dict) -> None:
    kernel.periodized_kernel_grid(inp["L"], inp["n"], inp["params"])


def symbreak2d_solve(inp: dict) -> dict:
    rep = flow.symmetry_breaking_experiment(
        inp["params"], k=1, n=inp["n"], n_seeds=inp["n_seeds"],
        opts=inp["opts"], h_star=H_STAR, threads=1)
    return {"energies": [r["energy"] for r in rep["runs"]],
            "converged": [r["converged"] for r in rep["runs"]],
            "benchmark_energy": rep["benchmark_energy"]}


def symbreak2d_checks(inp: dict, out: dict, ref: dict
                      ) -> list[tuple[str, bool]]:
    checks = [("run_count", len(out["energies"]) == inp["n_seeds"]),
              ("benchmark_energy", _close(out["benchmark_energy"],
                                          ref["benchmark_energy"],
                                          REL_ENERGY))]
    for i, e_ref in enumerate(ref["energies"]):
        ok = i < len(out["energies"]) and _close(out["energies"][i], e_ref,
                                                  REL_ENERGY)
        checks.append((f"run_{i}_energy", ok))
    return checks


def symbreak2d_unconverged(out: dict) -> tuple[int, int]:
    return sum(not c for c in out["converged"]), len(out["converged"])


def symbreak2d_freeze(inp: dict, out: dict) -> dict:
    return {"energies": list(out["energies"]),
            "benchmark_energy": out["benchmark_energy"]}


# ---------------------------------------------------------------------------
# period1d: optimal period, EL diagnostics, gamma relaxation (criteria 08-10)
# ---------------------------------------------------------------------------

# the three units of the pipeline, by class
PERIOD_PARTS = ("optimal_period", "el_residual", "gamma_study")
PERIOD_SIZES = {"full": (512, (512, 1024, 2048), 2048, (1, 10, 100, 1000)),
                "smoke": (128, (64, 128, 256), 256, (1, 10))}
PERIOD_H_EL = 1.58      # CLI default half-period of verify-el/gamma-study


def period1d_inputs(cls: int, size: str) -> dict:
    # deterministic: the reference configuration of criteria 08-10; the
    # class picks the part of the pipeline
    n, el_ns, gamma_n, sched = PERIOD_SIZES[size]
    # the EL thresholds of criterion 09 hold from the full grids up; the
    # smoke grids are too coarse for them and compare with frozen values
    return {"part": PERIOD_PARTS[cls], "params": PS1, "n": n,
            "h_range": (0.3, 40.0), "el_ns": el_ns, "h_el": PERIOD_H_EL,
            "gamma_n": gamma_n, "m_schedule": sched,
            "thresholds": size == "full"}


def period1d_setup(inp: dict) -> None:
    """The 1D marginal tables are rebuilt inside every solve; none is
    cached, so there is nothing to build ahead."""


def period1d_solve(inp: dict) -> dict:
    params, part = inp["params"], inp["part"]
    if part == "optimal_period":
        res = onedim.optimal_period(params, inp["h_range"], n=inp["n"])
        return {"h_star": res.h_star, "c_star": res.c_star,
                "period_evals": len(res.trace)}
    if part == "el_residual":
        gaps, gamma3 = [], []
        for n in inp["el_ns"]:
            m = onedim.minimize_profile(params, inp["h_el"], n=n)
            diag = onedim.el_residual(None, m.profile.full(), params)
            gaps.append(diag.first_integral_gap4)
            gamma3.append(diag.gamma3_ok)
        return {"fi_ratios": [gaps[i] / gaps[i + 1]
                              for i in range(len(gaps) - 1)],
                "gamma3_ok": gamma3}
    gam = onedim.gamma_limit_study(params, inp["h_el"],
                                   m_schedule=inp["m_schedule"],
                                   n=inp["gamma_n"])
    return {"m_runs": len(gam["m"]), "strict_margin": gam["strict_margin"],
            "measure_gamma_above": gam["measure_gamma_above"][-1]}


def period1d_checks(inp: dict, out: dict, ref: dict
                    ) -> list[tuple[str, bool]]:
    part = inp["part"]
    if part == "optimal_period":
        return [("h_star", _close(out["h_star"], ref["h_star"], 1e-4)),
                ("c_star", _close(out["c_star"], ref["c_star"], 1e-6))]
    if part == "el_residual":
        checks = [("gamma3_ok", all(out["gamma3_ok"]))]
        if inp["thresholds"]:
            return checks + [(f"first_integral_ratio_{i}", r >= 1.8)
                             for i, r in enumerate(out["fi_ratios"])]
        return checks + [(f"first_integral_ratio_{i}", _close(r, r_ref, 1e-6))
                         for i, (r, r_ref) in enumerate(zip(out["fi_ratios"],
                                                            ref["fi_ratios"]))]
    # the collapse of {gamma > 1.01} to one grid cell (criterion 10) needs
    # n=8192; at the benchmark's n the measure is held to its frozen value
    margin_ok = (out["strict_margin"] > 0.0 if inp["thresholds"] else
                 abs(out["strict_margin"] - ref["strict_margin"]) <= 1e-9)
    return [("gamma_strict_margin", margin_ok),
            ("gamma_collapse", _close(out["measure_gamma_above"],
                                      ref["measure_gamma_above"], 1e-9))]


def period1d_unconverged(out: dict) -> tuple[int, int]:
    # minimize_profile raises ConvergenceError instead of returning
    # unconverged, so every run that produced an output converged
    runs = (out.get("period_evals", 0) + len(out.get("gamma3_ok", ()))
            + out.get("m_runs", 0))
    return 0, runs


def period1d_freeze(inp: dict, out: dict) -> dict:
    keys = {"optimal_period": ("h_star", "c_star"),
            "el_residual": ("fi_ratios",),
            "gamma_study": ("strict_margin", "measure_gamma_above")}
    return {k: out[k] for k in keys[inp["part"]]}


# ---------------------------------------------------------------------------
# slicing2d: the directional lower bound on iid and lifted 1D fields
# ---------------------------------------------------------------------------

# (n, iid fields per unit); each unit also holds one lifted 1D field
SLICING_SIZES = {"full": (48, 3), "smoke": (12, 1)}
SLICING_PARAMS = PS2.with_(L=1.0)      # verify-decomposition defaults


def _smooth_profile(n: int, L: float, rng: np.random.Generator
                    ) -> np.ndarray:
    x = np.arange(n) * L / n
    g = 0.5 * np.ones(n)
    for k in range(1, 4):
        g += rng.normal(0, 0.15) * np.sin(2 * np.pi * k * x / L
                                          + rng.uniform(0, 2 * np.pi))
    return np.clip(g, 0.0, 1.0)


def slicing2d_inputs(cls: int, size: str) -> dict:
    n, count = SLICING_SIZES[size]
    L = SLICING_PARAMS.L
    rng = np.random.default_rng(cls)
    fields = [field.PeriodicField(2, n, L, rng.uniform(0.0, 1.0, (n, n)))
              for _ in range(count)]
    lifted = [field.make_one_dimensional(
        field.Profile1D(n, L, _smooth_profile(n, L, rng)), 1 + cls % 2, 2, n)]
    return {"params": SLICING_PARAMS, "n": n, "L": L, "fields": fields,
            "lifted": lifted}


def slicing2d_setup(inp: dict) -> None:
    kernel.periodized_kernel_grid(inp["L"], inp["n"], inp["params"])


def slicing2d_solve(inp: dict) -> dict:
    out = {}
    for key in ("fields", "lifted"):
        reps = [decomposition.lower_bound_report(u, inp["params"])
                for u in inp[key]]
        out[key] = [[r.full_energy, r.lower_bound, r.slack] for r in reps]
    return out


def slicing2d_checks(inp: dict, out: dict, ref: dict
                     ) -> list[tuple[str, bool]]:
    checks = []
    for i, (full, lower, slack) in enumerate(out["fields"]):
        f_ref, l_ref = ref["fields"][i]
        checks.append((f"field_{i}_slack", slack >= -1e-8))
        checks.append((f"field_{i}_report",
                       _close(full, f_ref, REL_REPORT)
                       and _close(lower, l_ref, REL_REPORT)))
    for i, (full, lower, slack) in enumerate(out["lifted"]):
        checks.append((f"lifted_{i}_defect",
                       abs(slack) < 1e-6 * (abs(full) + 1.0)))
    return checks


def slicing2d_unconverged(out: dict) -> tuple[int, int]:
    return 0, 0      # no iterative solver


def slicing2d_freeze(inp: dict, out: dict) -> dict:
    return {"fields": [[f, l] for f, l, _ in out["fields"]]}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, str], dict]
    setup: Callable[[dict], None]
    solve: Callable[[dict], dict]
    checks: Callable[[dict, dict, dict], list]
    unconverged: Callable[[dict], tuple]
    freeze: Callable[[dict, dict], dict]
    classes: int

    def describe(self, inp: dict) -> dict:
        """n/L/params and sizes of one input, for the run record."""
        rec = {}
        for key, val in inp.items():
            if isinstance(val, ModelParams):
                rec[key] = val.to_dict()
            elif isinstance(val, (int, float, str, tuple)):
                rec[key] = val
            elif isinstance(val, list):
                rec[key] = f"{len(val)} fields"
        return rec


WORKLOADS = {w.name: w for w in [
    Workload("symbreak2d",
             symbreak2d_inputs, symbreak2d_setup, symbreak2d_solve,
             symbreak2d_checks, symbreak2d_unconverged, symbreak2d_freeze,
             classes=4),
    Workload("period1d",
             period1d_inputs, period1d_setup, period1d_solve,
             period1d_checks, period1d_unconverged, period1d_freeze,
             classes=len(PERIOD_PARTS)),
    Workload("slicing2d",
             slicing2d_inputs, slicing2d_setup, slicing2d_solve,
             slicing2d_checks, slicing2d_unconverged, slicing2d_freeze,
             classes=4),
]}


def reference_for(refs: dict, workload: Workload, size: str, cls: int
                  ) -> dict:
    return refs[workload.name][size][str(cls)]
