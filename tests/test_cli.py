import json
import os
from dataclasses import asdict
import platform
import re
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import table_bound
from stripes import flow
from stripes.cli import FORMAT_VERSION, main
from stripes.decomposition import _slice_terms, lower_bound_report
from stripes.field import PeriodicField, read_pfd, write_pfd
from stripes.model import ModelParams
from stripes.onedim import optimal_period
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


def _scipy_modules_after(code: str) -> str:
    """The scipy modules loaded after running ``code`` in a fresh
    interpreter that imports stripes from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code += ("; import sys; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    # importing scipy.optimize would triple the import time of stripes;
    # only kernel-moments needs scipy, and imports it inside the command
    assert _scipy_modules_after("import stripes, stripes.cli") == "[]"


def test_output_carries_environment_without_importing_scipy(tmp_path):
    # the environment block sits next to the report, and the scipy version
    # it names comes from the installed metadata, not from importing scipy
    out = tmp_path / "m1"
    args = ["minimize-1d", "--half-period", "1.0", "-n", "128",
            "--output-dir", str(out)]
    assert _scipy_modules_after(
        f"import stripes.cli; stripes.cli.main({args!r}, "
        "standalone_mode=False)") == "[]"
    payload = _payload(out / "minimize_1d.json")
    environment = payload["environment"]
    assert set(environment) == {"python", "numpy", "scipy", "elapsed_s"}
    assert environment["python"] == platform.python_version()
    assert environment["numpy"] == np.__version__
    assert environment["scipy"] == metadata.version("scipy")
    assert environment["elapsed_s"] > 0
    assert "environment" not in payload["report"]


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
        # every byte but the wall time the output records of its run
        a, b = (re.sub(rb'"elapsed_s": [^\n]*', b'"elapsed_s": -',
                       (out / name).read_bytes()) for out in (out_a, out_b))
        assert a == b


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


def test_verify_decomposition_reports_slice_gbar(runner, tmp_path):
    fpath = _start_field(tmp_path)
    out = tmp_path / "vd"
    res = runner.invoke(main, ["verify-decomposition", "--field", str(fpath),
                               "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    rep = _payload(out / "verify_decomposition.json")["report"]
    u, ps = read_pfd(fpath)
    assert rep["dx_over_alpha"] == pytest.approx(u.h_grid / ps.alpha,
                                                  rel=1e-15)
    terms = _slice_terms(u, ps)
    for i in (1, 2):
        gbar = terms.gbar[i - 1].ravel().tolist()
        assert rep["gbar_min"][i - 1] == min(gbar)
        frac = rep["gbar_negative_fraction"][i - 1]
        assert 0.0 <= frac <= 1.0
        assert frac == sum(g < 0 for g in gbar) / len(gbar)


def test_verify_decomposition_report_is_the_lower_bound_report(runner,
                                                               tmp_path):
    fpath = _start_field(tmp_path)
    out = tmp_path / "vd"
    res = runner.invoke(main, ["verify-decomposition", "--field", str(fpath),
                               "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    rep = _payload(out / "verify_decomposition.json")["report"]
    u, ps = read_pfd(fpath)
    expected = asdict(lower_bound_report(u, ps))
    # the report's fields come first, in their order, then the CLI's keys
    assert list(rep)[:len(expected)] == list(expected)
    for key, value in expected.items():
        assert rep[key] == (list(value) if isinstance(value, tuple)
                            else value), key


@pytest.mark.parametrize("stored", [True, False])
def test_field_commands_read_the_params_of_a_pfd_file(runner, tmp_path,
                                                      stored):
    # a field written with tau = 0.2, eps = 0.04 is evaluated with them by
    # both commands that read one: from its header, or from the flags
    # when the header has none
    ps = ModelParams(d=2, p=4.0, tau=0.2, eps=0.04, L=2.0)
    u = PeriodicField(2, 16, 2.0,
                      np.random.default_rng(9).uniform(0, 1, (16, 16)))
    fpath = tmp_path / "f.pfd"
    write_pfd(fpath, u, ps if stored else None)
    flags = [] if stored else ["--tau", "0.2", "--eps", "0.04"]
    reports = []
    for cmd, opt in (("verify-decomposition", "--field"),
                     ("minimize-2d", "--resume")):
        out = tmp_path / cmd
        res = runner.invoke(main, [cmd, opt, str(fpath), *flags,
                                   "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        name = cmd.replace("-", "_")
        reports.append(_payload(out / f"{name}.json")["report"])
    decomposition, resumed = reports
    assert decomposition["dx_over_alpha"] == pytest.approx(15.625,
                                                           rel=1e-15)
    assert decomposition["kernel"] == resumed["kernel"]


def test_optimal_period_report_is_the_search_result(runner, tmp_path):
    out = tmp_path / "op"
    res = runner.invoke(main, ["optimal-period", "-n", "128",
                               "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    rep = _payload(out / "optimal_period.json")["report"]
    ps1 = ModelParams(d=1, p=3.0, tau=0.05, eps=0.05, L=1.0)
    search = optimal_period(ps1, (0.3, 40.0), grid=12, n=128)
    expected = {"h_star": search.h_star, "c_star": search.c_star,
                "trace": [list(t) for t in search.trace],
                "stop": search.stop, "evals": search.evals}
    assert list(rep)[:len(expected)] == list(expected)
    assert {key: rep[key] for key in expected} == expected


def test_reports_carry_the_kernel_certificate(runner, tmp_path):
    # with no tolerance input, the certificate is the record of each
    # table's truncation: 0.9 eps times the bound on its largest entry
    keys = {"step", "nodes", "log_t", "bound"}
    ps1 = ModelParams(d=1, p=3.0, tau=0.05, eps=0.05, L=1.0)

    def report(args, out, codes=(0,)):
        res = runner.invoke(main, [*args, "--output-dir", str(tmp_path / out)])
        assert res.exit_code in codes, res.output
        name = args[0].replace("-", "_")
        return _payload(tmp_path / out / f"{name}.json")["report"]

    def check(cert, bound):
        assert set(cert) == keys
        assert 0.0 < cert["bound"] <= bound

    rep = report(["verify-decomposition", "-d", "4", "-p", "6", "-n", "4"],
                 "vd")
    check(rep["kernel"], table_bound(
        ModelParams(d=4, p=6.0, tau=0.05, eps=0.05, L=1.0), 1.0))
    ps2 = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    rep = report(["minimize-2d", "-n", "16", "--seeds", "1"], "m2")
    check(rep["kernel"], table_bound(ps2, rep["L"]))
    rep = report(["minimize-2d", "--resume", str(_start_field(tmp_path))],
                 "m2r")
    check(rep["kernel"], table_bound(ps2, 2.0))
    # the 1D commands: the marginal table on the period 2h
    rep = report(["minimize-1d", "--half-period", "1.0", "-n", "128"], "m1")
    check(rep["kernel"], table_bound(ps1, 2.0, marginal=True))
    rep = report(["optimal-period", "-n", "128"], "op")
    check(rep["kernel"], table_bound(ps1, 2.0 * rep["h_star"],
                                     marginal=True))
    rep = report(["gamma-study", "-n", "512", "--m-schedule", "1,10"],
                 "gs", codes=(0, 1))
    check(rep["kernel"], table_bound(ps1, 2.0 * 1.58, marginal=True))
    rep = report(["verify-el", "-n", "128"], "el", codes=(0, 1))
    assert len(rep["kernel"]) == len(rep["n"]) == 2
    for cert in rep["kernel"]:
        check(cert, table_bound(ps1, 2.0 * 1.58, marginal=True))


def test_1d_reports_record_dx_over_alpha(runner, tmp_path):
    # the spacing 2h / n of the profile's samples over alpha, under the key
    # verify-decomposition uses: at h* for the search, one per n for
    # verify-el
    ps1 = ModelParams(d=1, p=3.0, tau=0.05, eps=0.05, L=1.0)

    def report(args, out, codes=(0,)):
        res = runner.invoke(main, [*args, "--output-dir", str(tmp_path / out)])
        assert res.exit_code in codes, res.output
        name = args[0].replace("-", "_")
        return _payload(tmp_path / out / f"{name}.json")["report"]

    def spacing(h, n):
        return pytest.approx(2.0 * h / n / ps1.alpha, rel=1e-15)

    rep = report(["minimize-1d", "--half-period", "1.0", "-n", "128"], "m1")
    assert rep["dx_over_alpha"] == spacing(1.0, 128)
    assert rep["unresolved"] is True
    rep = report(["optimal-period", "-n", "128"], "op")
    assert rep["dx_over_alpha"] == spacing(rep["h_star"], 128)
    assert rep["unresolved"] is True
    rep = report(["gamma-study", "-n", "512", "--m-schedule", "1,10"],
                 "gs", codes=(0, 1))
    assert rep["dx_over_alpha"] == spacing(1.58, 512)
    assert rep["unresolved"] is True
    rep = report(["minimize-1d", "--half-period", "1.0", "-n", "1024"],
                 "m1024")
    assert rep["dx_over_alpha"] == spacing(1.0, 1024)
    assert rep["unresolved"] is False
    rep = report(["verify-el", "-n", "128"], "el", codes=(0, 1))
    assert rep["dx_over_alpha"] == [spacing(1.58, 128), spacing(1.58, 256)]
    assert rep["unresolved"] == [True, True]


def test_2d_reports_flag_unresolved_grids(runner, tmp_path):
    # the field's spacing L / n over alpha and whether it exceeds 1, in
    # both branches of minimize-2d and in verify-decomposition
    ps2 = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    field = str(_start_field(tmp_path))
    reports = []
    for args in (["minimize-2d", "-n", "16", "--seeds", "1"],
                 ["minimize-2d", "--resume", field],
                 ["verify-decomposition", "--field", field],
                 ["verify-decomposition", "--box-side", "0.5", "-n", "256"]):
        out = tmp_path / str(len(reports))
        res = runner.invoke(main, [*args, "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        name = args[0].replace("-", "_")
        reports.append(_payload(out / f"{name}.json")["report"])
    experiment, resumed, decomposition, fine = reports
    assert experiment["dx_over_alpha"] == pytest.approx(
        experiment["L"] / 16 / ps2.alpha, rel=1e-15)
    assert resumed["dx_over_alpha"] == decomposition["dx_over_alpha"] \
        == pytest.approx(2.0 / 16 / ps2.alpha, rel=1e-15)
    assert fine["dx_over_alpha"] == pytest.approx(0.5 / 256 / ps2.alpha,
                                                  rel=1e-15)
    assert [r["unresolved"] for r in reports] == [True, True, True, False]


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
    assert set(report["stop"]) <= {"grad", "line_search", "max_iter"}


def test_minimize_2d_rejects_zero_threads(runner, tmp_path):
    res = runner.invoke(main, ["minimize-2d", "--threads", "0",
                               "--output-dir", str(tmp_path)])
    assert res.exit_code == 1
    assert "threads=0" in res.output
    assert not (tmp_path / "minimize_2d.json").exists()


def test_minimize_2d_rejects_zero_seeds(runner, tmp_path):
    res = runner.invoke(main, ["minimize-2d", "--seeds", "0",
                               "--output-dir", str(tmp_path)])
    assert res.exit_code == 1
    assert "Error: n_seeds must be >= 1, got 0" in res.output
    assert not (tmp_path / "minimize_2d.json").exists()


@pytest.mark.parametrize("args, message", [
    (["-n", "30", "-k", "2"], "Error: 2k = 4 must divide n = 30"),
    (["-k", "0"], "Error: k must be >= 1, got 0"),
    (["-k", "-1"], "Error: k must be >= 1, got -1")])
def test_minimize_2d_rejects_a_box_off_the_grid(runner, tmp_path,
                                                monkeypatch, args, message):
    searches = []
    monkeypatch.setattr("stripes.onedim.optimal_period",
                        lambda *a, **kw: searches.append(a))
    res = runner.invoke(main, ["minimize-2d", *args,
                               "--output-dir", str(tmp_path)])
    assert res.exit_code == 1
    assert res.output.startswith(message)
    assert "Traceback" not in res.output
    assert searches == []
    assert not (tmp_path / "minimize_2d.json").exists()


@pytest.mark.parametrize("schedule, message", [
    ("", "Error: --m-schedule must be comma-separated numbers, got ''"),
    ("1,x", "Error: --m-schedule must be comma-separated numbers, "
            "got '1,x'"),
    ("0.5", "Error: m_schedule must hold one or more m >= 1, got (0.5,)")])
def test_gamma_study_rejects_a_bad_schedule(runner, tmp_path, monkeypatch,
                                            schedule, message):
    descents = []
    monkeypatch.setattr("stripes.onedim.minimize_profile",
                        lambda *a, **kw: descents.append(a))
    res = runner.invoke(main, ["gamma-study", "--m-schedule", schedule,
                               "--output-dir", str(tmp_path)])
    assert res.exit_code == 1
    assert res.output == message + "\n"
    assert descents == []
    assert not (tmp_path / "gamma_study.json").exists()


@pytest.mark.parametrize("args, message", [
    (["optimal-period", "-n", "30"], "n must be >= 32, got 30"),
    (["minimize-1d", "--half-period", "1.0", "-n", "31"],
     "n must be >= 32, got 31"),
    (["verify-el", "-n", "15"], "n must be >= 32, got 15"),
    (["verify-decomposition", "-n", "1"], "n must be >= 2, got 1"),
    (["optimal-period", "--h-lo", "5", "--h-hi", "1"],
     "need 0 < lo < hi, got lo=5.0, hi=1.0"),
    (["minimize-1d", "--half-period", "-1"], "h must be positive, got -1.0"),
    (["rp-check", "-n", "2"], "n must be >= 3, got 2"),
    (["kernel-moments", "-d", "1", "-p", "2"], "p must exceed d+1 = 2"),
    (["kernel-moments", "--config", "{not_json}"],
     "Expecting value: line 1 column 1 (char 0)"),
    (["optimal-period", "-n", "64", "--grid", "1"],
     "grid must be >= 3, got 1"),
    # the period search's ConvergenceError: three scan points, no
    # interior minimum
    (["optimal-period", "--h-lo", "0.3", "--h-hi", "0.31", "-n", "64",
      "--grid", "3"], "no interior minimum over the h range [0.3, 0.31]"),
    (["rp-check", "--profiles", "0"], "profiles must be >= 1, got 0")])
def test_library_value_errors_are_one_line_errors(runner, tmp_path, args,
                                                  message):
    not_json = tmp_path / "cfg.json"
    not_json.write_text("not json\n")
    args = [a.format(not_json=not_json) for a in args]
    res = runner.invoke(main, [*args, "--output-dir", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: " + message)
    assert res.output.count("\n") == 1
    assert "Traceback" not in res.output
    assert not list(tmp_path.glob("o/*.json"))


@pytest.mark.parametrize("args, message", [
    # checked before the period search, which n = 0 would run
    (["minimize-2d", "-n", "0", "--seeds", "1"], "n must be >= 1, got 0"),
    (["minimize-2d", "-n", "-4", "--seeds", "1"], "n must be >= 1, got -4"),
    # named as h, not as the period L = 2h
    (["gamma-study", "--half-period", "-1", "-n", "64"],
     "h must be positive, got -1.0"),
    (["gamma-study", "--half-period", "nan", "-n", "64"],
     "h must be finite, got nan"),
    (["minimize-1d", "--half-period", "inf"], "h must be finite, got inf")])
def test_rejected_sizes_and_half_periods_are_one_line_errors(
        runner, tmp_path, args, message):
    res = runner.invoke(main, [*args, "--output-dir", str(tmp_path)])
    assert res.exit_code == 1
    assert res.output == f"Error: {message}\n"
    assert not list(tmp_path.glob("*.json"))


# the options that no program set, now module constants
REMOVED_FLAGS = [("minimize-2d", "--anisotropy-threshold"),
                 ("minimize-2d", "--gap-threshold"),
                 ("optimal-period", "--tol"), ("kernel-moments", "--tol"),
                 ("verify-decomposition", "--tol-slack"),
                 ("rp-check", "--tol-gap")]
REMOVED_KEYS = [("minimize-2d", "anisotropy_threshold"),
                ("minimize-2d", "gap_threshold"), ("optimal-period", "tol"),
                ("kernel-moments", "tol"), ("verify-decomposition", "h"),
                ("verify-decomposition", "tol_slack"),
                ("rp-check", "tol_gap")]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_removed_flags_are_usage_errors(runner, tmp_path, command, flag):
    res = runner.invoke(main, [command, flag, "0.5",
                               "--output-dir", str(tmp_path)])
    assert res.exit_code == 2
    # click words it "No such option: --x" or "No such option '--x'."
    assert re.search(f"No such option:? '?{flag}", res.output)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, key", REMOVED_KEYS)
def test_sidecar_with_a_removed_key_is_rejected_by_name(runner, tmp_path,
                                                        command, key):
    cfg = tmp_path / "old_config.json"
    cfg.write_text(json.dumps({"format_version": FORMAT_VERSION, key: 0.5}))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", str(cfg),
                               "--output-dir", str(out)])
    assert res.exit_code == 1
    assert res.output == (f"Error: {command} takes no config key {key!r} "
                          f"(in {cfg})\n")
    assert not out.exists()


def test_minimize_2d_report_records_the_success_thresholds(runner, tmp_path):
    out = tmp_path / "m2"
    res = runner.invoke(main, ["minimize-2d", "-n", "16", "--seeds", "1",
                               "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    report = _payload(out / "minimize_2d.json")["report"]
    assert report["anisotropy_threshold"] == flow.ANISOTROPY_THRESHOLD
    assert report["gap_threshold"] == flow.GAP_THRESHOLD
    sidecar = _payload(out / "minimize_2d_config.json")
    assert not {"anisotropy_threshold", "gap_threshold"} & set(sidecar)


def test_nan_tau_is_a_one_line_error(runner, tmp_path):
    res = runner.invoke(main, ["optimal-period", "--tau", "nan",
                               "--output-dir", str(tmp_path)])
    assert res.exit_code == 1
    assert res.output == "Error: tau must be finite, got nan\n"
    assert not (tmp_path / "optimal_period.json").exists()


def test_minimize_2d_box_side_is_a_usage_error(runner, tmp_path):
    # the experiment's box is always L = 2k h*; -k sets its size
    res = runner.invoke(main, ["minimize-2d", "--box-side", "5",
                               "--allow-incommensurate",
                               "--output-dir", str(tmp_path)])
    assert res.exit_code == 2


def test_threads_flag_is_recorded_not_exported(runner, tmp_path):
    fpath = _start_field(tmp_path)
    environ = dict(os.environ)
    res = runner.invoke(main, ["minimize-2d", "--resume", str(fpath),
                               "--threads", "3",
                               "--output-dir", str(tmp_path / "t")])
    assert res.exit_code == 0, res.output
    assert dict(os.environ) == environ
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
    cfg.write_text(json.dumps({"tau": 1e-6}))
    out = tmp_path / "km"
    res = runner.invoke(main, ["kernel-moments", "--config", str(cfg),
                               "--output-dir", str(out)])
    assert res.exit_code == 1
    assert _payload(out / "kernel_moments_config.json")["tau"] == 1e-6


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
        assert isinstance(a["report"]["evals"], int)
    if case == "verify-el":
        # one descent per grid, n and 2n, each with its trials evaluated
        assert len(a["report"]["stop"]) == len(a["report"]["evals"]) == 2
        assert set(a["report"]["stop"]) <= set(STOP_REASONS)
    if case == "gamma-study":
        rep = a["report"]
        assert (len(rep["descent_stops"]) == len(rep["descent_evals"])
                == rep["descents_solved"])
    if case.startswith("minimize-2d"):
        # per flow, each kappa stage's stop, energy calls and final
        # projected-gradient norm
        flows = (a["report"]["runs"] if case == "minimize-2d"
                 else [a["report"]])
        for r in flows:
            assert len(r["stop"]) == len(r["evals"]) == len(r["grad_norm"])
            assert all(isinstance(k, int) and k >= 0 for k in r["evals"])
            assert all(g >= 0.0 for g in r["grad_norm"])
