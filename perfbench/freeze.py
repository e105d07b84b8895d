"""Freeze the reference outputs the benchmark checks against.

    python3 perfbench/freeze.py

Runs every workload on every input class at both sizes with the library in
``src`` and writes ``perfbench/reference.json``.  Run it only at a commit
whose outputs are the accepted ones: the checks then hold later commits to
them.  The period1d optimum is held to the frozen values of
``test_optimal_period_reference_point`` instead of a fresh computation.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins threads, imports stripes from src)

run._import_library()

import workloads as W  # noqa: E402


def main() -> None:
    refs: dict = {}
    for wl in W.WORKLOADS.values():
        refs[wl.name] = {}
        for size in ("full", "smoke"):
            table = {}
            for cls in range(wl.classes):
                inp = wl.inputs(cls, size)
                out = wl.solve(inp)
                table[str(cls)] = wl.freeze(inp, out)
                print(wl.name, size, cls, flush=True)
            refs[wl.name][size] = table
    full = refs["period1d"]["full"][
        str(W.PERIOD_PARTS.index("optimal_period"))]
    assert abs(full["h_star"] - W.PERIOD_H_STAR) <= 1e-4 * W.PERIOD_H_STAR
    assert abs(full["c_star"] - W.PERIOD_C_STAR) <= 1e-6 * W.PERIOD_C_STAR
    full["h_star"], full["c_star"] = W.PERIOD_H_STAR, W.PERIOD_C_STAR
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
