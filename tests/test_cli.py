import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from stripes.cli import FORMAT_VERSION, main
from stripes.field import PeriodicField, write_pfd
from stripes.model import ModelParams
from stripes.solvers import STOP_REASONS


@pytest.fixture
def runner():
    return CliRunner()


def _payload(path):
    return json.loads(Path(path).read_text())


def _start_field(tmp_path):
    """A 16² noise field at the d=2 parameter point, dumped to .pfd."""
    ps = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    rng = np.random.default_rng(9)
    u = PeriodicField(2, 16, 2.0, rng.uniform(0, 1, (16, 16)))
    fpath = tmp_path / "start.pfd"
    write_pfd(fpath, u, ps)
    return fpath


def test_import_loads_no_scipy():
    # importing scipy.optimize would triple the import time of stripes;
    # only kernel-moments needs scipy, and imports it inside the command
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, stripes, stripes.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_kernel_moments_passes_and_embeds_config(runner, tmp_path):
    out = tmp_path / "km"
    res = runner.invoke(main, ["kernel-moments", "-d", "1", "-p", "3",
                               "--tau", "0.05", "--eps", "0.05",
                               "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    payload = _payload(out / "kernel_moments.json")
    assert payload["format_version"] == FORMAT_VERSION
    assert payload["passed"] is True
    assert payload["config"]["tau"] == 0.05
    assert payload["report"]["c_tau"] == pytest.approx(20.0)
    assert (out / "kernel_moments_config.json").exists()


def test_kernel_moments_rejects_divergent_exponents(runner, tmp_path):
    res = runner.invoke(main, ["kernel-moments", "-d", "2", "-p", "2.5",
                               "--tau", "0.05", "--eps", "0.05",
                               "--output-dir", str(tmp_path)])
    assert res.exit_code != 0
    assert "d+1" in res.output


def test_config_file_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 1, "p": 3, "tau": 0.05, "eps": 0.05,
                               "h": 1.0, "n": 256}))
    out = tmp_path / "m1"
    res = runner.invoke(main, ["minimize-1d", "--config", str(cfg),
                               "-n", "128", "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    resolved = _payload(out / "minimize_1d_config.json")
    assert resolved["n"] == 128   # flag wins
    assert resolved["h"] == 1.0   # file fills the rest
    assert (out / "profile.csv").exists()
    assert (out / "trace.csv").exists()


def test_minimize_1d_requires_half_period(runner, tmp_path):
    res = runner.invoke(main, ["minimize-1d", "-d", "1", "-p", "3",
                               "--tau", "0.05", "--eps", "0.05",
                               "--output-dir", str(tmp_path)])
    assert res.exit_code != 0


def test_optimal_period_rerun_is_bit_identical(runner, tmp_path):
    args = ["optimal-period", "-d", "1", "-p", "3", "--tau", "0.05",
            "--eps", "0.05", "--h-lo", "0.3", "--h-hi", "40", "-n", "256"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, args + ["--output-dir", str(out_a)]
                         ).exit_code == 0
    assert runner.invoke(main, args + ["--output-dir", str(out_b)]
                         ).exit_code == 0
    for name in ("optimal_period.json", "profile.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_verify_el_reports_residual_samples(runner, tmp_path):
    # the l2 residual covers only the samples with delta < g < 1 - delta
    out = tmp_path / "el"
    res = runner.invoke(main, ["verify-el", "-n", "128",
                               "--output-dir", str(out)])
    assert res.exit_code in (0, 1), res.output
    rep = _payload(out / "verify_el.json")["report"]
    assert rep["n"] == [128, 256]
    counts = rep["residual_samples"]
    assert len(counts) == 2
    assert all(isinstance(c, int) and 0 <= c < n
               for c, n in zip(counts, rep["n"]))


def test_verify_decomposition_stripe_passes(runner, tmp_path):
    out = tmp_path / "vd"
    res = runner.invoke(main, ["verify-decomposition", "--kind", "stripe",
                               "-n", "16", "--tau", "0.05", "--eps", "0.05",
                               "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    payload = _payload(out / "verify_decomposition.json")
    assert payload["report"]["slack"] >= -1e-8


def test_verify_decomposition_reads_field_file(runner, tmp_path):
    ps = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    rng = np.random.default_rng(7)
    u = PeriodicField(2, 12, 2.0, rng.uniform(0, 1, (12, 12)))
    fpath = tmp_path / "u.pfd"
    write_pfd(fpath, u, ps)
    out = tmp_path / "vd2"
    res = runner.invoke(main, ["verify-decomposition", "--field",
                               str(fpath), "--tau", "0.05", "--eps", "0.05",
                               "--output-dir", str(out)])
    assert res.exit_code == 0, res.output


def test_rp_check_passes(runner, tmp_path):
    out = tmp_path / "rp"
    res = runner.invoke(main, ["rp-check", "-d", "1", "-p", "3",
                               "--tau", "0.05", "--eps", "0.05",
                               "--profiles", "4", "-n", "48",
                               "--seed", "11", "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    payload = _payload(out / "rp_check.json")
    assert payload["report"]["worst_rp_gap"] >= -1e-8
    assert payload["report"]["worst_chessboard_gap"] >= -1e-8


def test_gamma_study_fails_on_coarse_grid(runner, tmp_path):
    # under-resolved coefficients exceed the tolerance band: nonzero exit
    out = tmp_path / "gs"
    res = runner.invoke(main, ["gamma-study", "-d", "1", "-p", "3",
                               "--tau", "0.05", "--eps", "0.05",
                               "--half-period", "1.58", "-n", "512",
                               "--m-schedule", "1,10",
                               "--output-dir", str(out)])
    assert res.exit_code == 1
    payload = _payload(out / "gamma_study.json")
    assert payload["passed"] is False
    assert (out / "margins.csv").exists()
    assert payload["config"]["m_schedule"] == "1,10"


def test_minimize_2d_resume_from_field(runner, tmp_path):
    ps = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    rng = np.random.default_rng(9)
    u = PeriodicField(2, 16, 2.0, rng.uniform(0, 1, (16, 16)))
    fpath = tmp_path / "start.pfd"
    write_pfd(fpath, u, ps)
    out = tmp_path / "m2"
    res = runner.invoke(main, ["minimize-2d", "--resume", str(fpath),
                               "--tau", "0.05", "--eps", "0.05",
                               "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    payload = _payload(out / "minimize_2d.json")
    assert payload["report"]["resumed_from"] == str(fpath)
    assert (out / "resumed_final.pfd").exists()


def test_minimize_2d_resume_reports_stop_reasons(runner, tmp_path):
    out = tmp_path / "m2"
    res = runner.invoke(main, ["minimize-2d", "--resume",
                               str(_start_field(tmp_path)),
                               "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    report = _payload(out / "minimize_2d.json")["report"]
    assert len(report["stop"]) == 3
    assert set(report["stop"]) <= {"grad", "stall", "line_search",
                                   "max_iter"}


def test_minimize_2d_rejects_zero_threads(runner, tmp_path):
    res = runner.invoke(main, ["minimize-2d", "--threads", "0",
                               "--output-dir", str(tmp_path)])
    assert res.exit_code == 1
    assert "threads=0" in res.output
    assert not (tmp_path / "minimize_2d.json").exists()


def test_minimize_2d_box_side_is_a_usage_error(runner, tmp_path):
    # the experiment's box is always L = 2k h*; -k sets its size
    res = runner.invoke(main, ["minimize-2d", "--box-side", "5",
                               "--allow-incommensurate",
                               "--output-dir", str(tmp_path)])
    assert res.exit_code == 2


def test_threads_flag_is_recorded_not_exported(runner, tmp_path,
                                               monkeypatch):
    monkeypatch.delenv("STRIPES_THREADS", raising=False)
    fpath = _start_field(tmp_path)
    res = runner.invoke(main, ["minimize-2d", "--resume", str(fpath),
                               "--threads", "3",
                               "--output-dir", str(tmp_path / "t")])
    assert res.exit_code == 0, res.output
    assert "STRIPES_THREADS" not in os.environ
    config = _payload(tmp_path / "t" / "minimize_2d_config.json")
    assert config["threads"] == 3


def test_sidecar_records_defaults_and_reruns(runner, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    res = runner.invoke(main, ["kernel-moments", "-d", "1", "-p", "3",
                               "--output-dir", str(out_a)])
    assert res.exit_code == 0, res.output
    sidecar = out_a / "kernel_moments_config.json"
    config = _payload(sidecar)
    assert {"tau", "eps", "L"} <= set(config)
    res = runner.invoke(main, ["kernel-moments", "--config", str(sidecar),
                               "--output-dir", str(out_b)])
    assert res.exit_code == 0, res.output
    assert (_payload(out_b / "kernel_moments.json")["report"]
            == _payload(out_a / "kernel_moments.json")["report"])


def test_rp_check_passed_is_a_json_boolean(runner, tmp_path):
    out = tmp_path / "rp"
    res = runner.invoke(main, ["rp-check", "--profiles", "4", "-n", "48",
                               "--seed", "11", "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    assert _payload(out / "rp_check.json")["passed"] is True


def test_config_file_unknown_key_is_rejected(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tua": 0.1}))
    res = runner.invoke(main, ["kernel-moments", "--config", str(cfg),
                               "--output-dir", str(tmp_path / "km")])
    assert res.exit_code == 1
    assert "'tua'" in res.output and "kernel-moments" in res.output


def test_config_file_value_beats_table_default(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-300}))
    out = tmp_path / "km"
    res = runner.invoke(main, ["kernel-moments", "--config", str(cfg),
                               "--output-dir", str(out)])
    assert res.exit_code == 1
    assert _payload(out / "kernel_moments_config.json")["tol"] == 1e-300


def test_verify_decomposition_honours_config_dimension(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "p": 5, "n": 6}))
    out = tmp_path / "vd"
    res = runner.invoke(main, ["verify-decomposition", "--config", str(cfg),
                               "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    payload = _payload(out / "verify_decomposition.json")
    assert payload["config"]["d"] == 3
    assert len(payload["report"]["mbar"]) == 3


ROUND_TRIPS = {
    "kernel-moments": ["kernel-moments", "-d", "1", "-p", "3"],
    "optimal-period": ["optimal-period", "-n", "128"],
    "minimize-1d": ["minimize-1d", "--half-period", "1.0", "-n", "128"],
    "minimize-2d": ["minimize-2d", "-n", "16", "--seeds", "1"],
    "minimize-2d-resume": ["minimize-2d", "--resume", "{field}"],
    "verify-decomposition-random": ["verify-decomposition", "--kind",
                                    "random", "-n", "16"],
    "verify-decomposition-stripe": ["verify-decomposition", "--kind",
                                    "stripe", "-n", "16"],
    "verify-el": ["verify-el", "-n", "128"],
    "gamma-study": ["gamma-study", "-n", "512", "--m-schedule", "1,10"],
    "rp-check": ["rp-check", "--profiles", "4", "-n", "48", "--seed", "11"],
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
def test_sidecar_reruns_every_command(runner, tmp_path, case):
    field = str(_start_field(tmp_path))
    args = [a.format(field=field) for a in ROUND_TRIPS[case]]
    name = args[0].replace("-", "_")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    res_a = runner.invoke(main, args + ["--output-dir", str(out_a)])
    assert res_a.exit_code in (0, 1), res_a.output
    sidecar = out_a / f"{name}_config.json"
    res_b = runner.invoke(main, [args[0], "--config", str(sidecar),
                                 "--output-dir", str(out_b)])
    assert res_b.exit_code == res_a.exit_code, res_b.output
    a, b = (_payload(o / f"{name}.json") for o in (out_a, out_b))
    assert b["report"] == a["report"]
    assert b["passed"] is a["passed"]
    assert _payload(out_b / f"{name}_config.json") == _payload(sidecar)
    if case in ("minimize-1d", "optimal-period"):
        assert a["report"]["stop"] in STOP_REASONS
    if case == "verify-el":
        # one descent per grid, n and 2n
        assert len(a["report"]["stop"]) == 2
        assert set(a["report"]["stop"]) <= set(STOP_REASONS)
