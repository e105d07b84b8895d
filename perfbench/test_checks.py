"""Tests of the benchmark itself: every output check must reject a
corrupted output, and the tracer's self times must add up.

    python3 -m pytest perfbench -q

Uses smoke-size outputs of every unit, so it runs in seconds.
"""
from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_library()

import tracer  # noqa: E402
import workloads as W  # noqa: E402

REFS = json.loads((HERE / "reference.json").read_text())


UNITS = [(wl.name, cls) for wl in W.WORKLOADS.values()
         for cls in range(wl.classes)]


@pytest.fixture(scope="module")
def outputs():
    got = {}
    for name, cls in UNITS:
        wl = W.WORKLOADS[name]
        inp = wl.inputs(cls, "smoke")
        got[name, cls] = (inp, wl.solve(inp),
                          W.reference_for(REFS, wl, "smoke", cls))
    return got


def _failing(name, inp, out, ref) -> set:
    return {c for c, ok in W.WORKLOADS[name].checks(inp, out, ref) if not ok}


@pytest.mark.parametrize("name,cls", UNITS,
                         ids=[f"{n}-{c}" for n, c in UNITS])
def test_seed_outputs_pass(outputs, name, cls):
    inp, out, ref = outputs[name, cls]
    assert _failing(name, inp, out, ref) == set()


def _corrupt(outputs, name, cls, edit):
    inp, out, ref = outputs[name, cls]
    inp, out = dict(inp), copy.deepcopy(out)
    edit(inp, out)
    return _failing(name, inp, out, ref)


def _scale_last(key, factor):
    def edit(inp, out):
        out[key][-1] *= factor
    return edit


PERIOD = {part: cls for cls, part in enumerate(W.PERIOD_PARTS)}

# (workload, unit, check that must fail, corruption)
CORRUPTIONS = [
    ("symbreak2d", 0, "run_count", lambda inp, out: out["energies"].pop()),
    ("symbreak2d", 1, "run_1_energy", _scale_last("energies", 1.0 + 1e-5)),
    ("symbreak2d", 2, "benchmark_energy",
     lambda inp, out: out.update(benchmark_energy=0.0)),
    ("period1d", PERIOD["optimal_period"], "h_star",
     lambda inp, out: out.update(h_star=out["h_star"] * 1.01)),
    ("period1d", PERIOD["optimal_period"], "c_star",
     lambda inp, out: out.update(c_star=out["c_star"] + 1e-3)),
    ("period1d", PERIOD["el_residual"], "gamma3_ok",
     lambda inp, out: out["gamma3_ok"].append(False)),
    ("period1d", PERIOD["el_residual"], "first_integral_ratio_1",
     _scale_last("fi_ratios", 1.1)),
    ("period1d", PERIOD["el_residual"], "first_integral_ratio_0",
     lambda inp, out: (inp.update(thresholds=True),
                       out.update(fi_ratios=[1.5, 2.0]))),
    ("period1d", PERIOD["gamma_study"], "gamma_strict_margin",
     lambda inp, out: out.update(strict_margin=-1e-3)),
    ("period1d", PERIOD["gamma_study"], "gamma_strict_margin",
     lambda inp, out: inp.update(thresholds=True)
     or out.update(strict_margin=0.0)),
    ("period1d", PERIOD["gamma_study"], "gamma_collapse",
     lambda inp, out: out.update(measure_gamma_above=1.0)),
    ("slicing2d", 0, "field_0_slack",
     lambda inp, out: out["fields"][0].__setitem__(2, -1e-6)),
    ("slicing2d", 3, "field_0_report",
     lambda inp, out: out["fields"][0].__setitem__(0, out["fields"][0][0]
                                                   * (1.0 + 1e-6))),
    ("slicing2d", 1, "lifted_0_defect",
     lambda inp, out: out["lifted"][0].__setitem__(2, 1e-3)),
]


@pytest.mark.parametrize("name,cls,check,edit", CORRUPTIONS,
                         ids=[f"{n}-{u}-{c}" for n, u, c, _ in CORRUPTIONS])
def test_corrupted_output_fails(outputs, name, cls, check, edit):
    assert check in _corrupt(outputs, name, cls, edit)


def _kind(check: str) -> str:
    return re.sub(r"_\d+_", "_N_", check)


def test_every_check_has_a_corruption(outputs):
    covered = {(n, _kind(c)) for n, _, c, _ in CORRUPTIONS}
    for (name, _), (inp, out, ref) in outputs.items():
        for check, _ in W.WORKLOADS[name].checks(inp, out, ref):
            assert (name, _kind(check)) in covered, check


def test_self_time_excludes_children():
    # root solve span 0..10 with a descent 1..9 holding a gradient 2..4
    # and an energy 5..6 (3 FFTs) under it
    spans = [
        ["bench.solve", 0.0, 10.0, -1, 3, {}],
        ["flow.descent", 1.0, 9.0, 0, 3,
         {"iterations": 2, "converged": True}],
        ["flow.gradient", 2.0, 4.0, 1, 0, None],
        ["energy.total", 5.0, 6.0, 1, 3, None],
    ]
    m = tracer.layer_metrics(spans)
    assert m["flow.descent_self_s"] == pytest.approx(5.0)
    assert m["flow.gradient_self_s"] == pytest.approx(2.0)
    assert m["energy.total_self_s"] == pytest.approx(1.0)
    assert m["energy.ffts_per_call"] == 3
    assert m["flow.energy_evals_per_iter"] == pytest.approx(0.5)
    assert m["kernel.grid_hit_ratio"] == 0.0


def test_layer_metrics_sum_unit_medians():
    # unit 0 solved twice, with 1 and 3 energy calls, unit 1 once with 5:
    # a pass holds median_low(1, 3) + 5 = 6 calls
    spans = []
    for cls, calls in ((0, 1), (1, 5), (0, 3)):
        root = len(spans)
        spans.append(["bench.solve", 0.0, 1.0, -1, 3 * calls, {"cls": cls}])
        spans += [["energy.total", 0.0, 0.1, root, 3, None]] * calls
    m = tracer.layer_metrics(spans)
    assert m["energy.total_calls"] == 6
    assert m["energy.total_self_s"] == pytest.approx(0.6)


def test_pass_time_sums_unit_medians():
    # unit 0 took 2, 1 and 3 s, unit 1 took 0.5 s on a host twice as slow
    # as the reference speed
    ref = run.PROBE_REF_S
    samples = {0: [(dt, run._at_ref(dt, ref, ref)) for dt in (2.0, 1.0, 3.0)],
               1: [(0.5, run._at_ref(0.5, 1.5 * ref, 2.5 * ref))]}
    assert run._pass_time(samples, 0) == 2.5
    assert run._pass_time(samples, 1) == pytest.approx(2.25)
    assert run._pass_time({0: [(2.0, 2.0)], 1: []}, 1) == 0.0
