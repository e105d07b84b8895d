import json
import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from stripes.cli import FORMAT_VERSION, main
from stripes.field import PeriodicField, write_pfd
from stripes.model import ModelParams


@pytest.fixture
def runner():
    return CliRunner()


def _payload(path):
    return json.loads(Path(path).read_text())


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


def test_minimize_2d_incommensurate_box_needs_flag(runner, tmp_path):
    res = runner.invoke(main, ["minimize-2d", "--tau", "0.05",
                               "--eps", "0.05", "--box-side", "3.7",
                               "--output-dir", str(tmp_path)])
    assert res.exit_code != 0
    assert "allow-incommensurate" in res.output


def test_threads_flag_is_recorded_not_exported(runner, tmp_path,
                                               monkeypatch):
    monkeypatch.delenv("STRIPES_THREADS", raising=False)
    res = runner.invoke(main, ["kernel-moments", "-d", "1", "-p", "3",
                               "--tau", "0.05", "--eps", "0.05",
                               "--threads", "3",
                               "--output-dir", str(tmp_path / "t")])
    assert res.exit_code == 0
    assert "STRIPES_THREADS" not in os.environ
    config = _payload(tmp_path / "t" / "kernel_moments_config.json")
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
