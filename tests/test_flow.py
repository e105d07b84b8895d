import warnings

import numpy as np
import pytest

from helpers import rough_field, smooth_field
from stripes import energy, flow, kernel
from stripes.energy import total_energy
from stripes.field import (PeriodicField, Profile1D, StripeSpec, l1_distance,
                           make_one_dimensional, make_stripes)
from stripes.flow import (FlowOptions, energy_gradient, fourier_anisotropy,
                          gradient_flow, stripe_metrics,
                          symmetry_breaking_experiment,
                          tiled_stripe_benchmark)
from stripes.model import ModelParams, double_well
from stripes.solvers import STOP_REASONS


def _smoothed_energy(vals, params, L, kappa, kgrid):
    d = vals.ndim
    n = vals.shape[0]
    dx = L / n
    vol = dx ** d
    alpha = params.alpha
    c = kernel.c_tau(params)
    diffs = [(np.roll(vals, -1, axis=ax) - vals) / dx for ax in range(d)]
    s = sum(np.sqrt(t * t + kappa * kappa) for t in diffs)
    w = vals ** 2 * (1.0 - vals) ** 2
    mm = 3.0 * alpha * np.sum(s * s) * vol + 3.0 / alpha * np.sum(w) * vol
    axes = tuple(range(d))
    conv = np.real(np.fft.ifftn(np.fft.fftn(vals, axes=axes)
                                * np.fft.fftn(kgrid, axes=axes), axes=axes))
    nl = 2.0 * vol * vol * (np.sum(kgrid) * np.sum(vals ** 2)
                            - np.sum(vals * conv))
    return ((c - 1.0) * mm - nl) / L ** d


def test_gradient_matches_directional_fd(ps2):
    rng = np.random.default_rng(30)
    kappa = 1e-3
    worst = 0.0
    for trial in range(5):
        vals = rng.uniform(0.2, 0.8, (16, 16))
        u = PeriodicField(2, 16, 2.0, vals)
        g = energy_gradient(u, ps2, kappa=kappa)
        kgrid = kernel.periodized_kernel_grid(2.0, 16, ps2)
        for _ in range(3):
            v = rng.standard_normal((16, 16))
            h = 1e-6
            e_p = _smoothed_energy(vals + h * v, ps2, 2.0, kappa, kgrid)
            e_m = _smoothed_energy(vals - h * v, ps2, 2.0, kappa, kgrid)
            fd = (e_p - e_m) / (2 * h)
            an = float(np.sum(g * v))
            worst = max(worst, abs(fd - an) / (abs(fd) + 1e-30))
    assert worst < 1e-4


def test_gradient_zero_on_well_constants(ps2):
    u = PeriodicField(2, 16, 2.0, np.ones((16, 16)))
    g = energy_gradient(u, ps2)
    # only the kappa-smoothed interface term contributes, and it is
    # constant, so the nonlocal and well parts vanish identically
    assert np.ptp(g) == pytest.approx(0.0, abs=1e-12)


def test_flow_descends_monotonically(ps2, monkeypatch):
    rng = np.random.default_rng(31)
    u0 = rough_field(2, 16, 2.0, rng)
    monkeypatch.setattr(flow, "MAX_ITER", 200)
    monkeypatch.setattr(flow, "TRACE_EVERY", 1)
    uf, trace = gradient_flow(u0, ps2)
    energies = [e for (_, e, _) in trace.entries]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert total_energy(uf, ps2).total <= total_energy(u0, ps2).total


def test_flow_equivariance_under_transpose(ps2, monkeypatch):
    rng = np.random.default_rng(32)
    u0 = rough_field(2, 16, 2.0, rng)
    monkeypatch.setattr(flow, "MAX_ITER", 60)
    uf, _ = gradient_flow(u0, ps2)
    ut, _ = gradient_flow(u0.with_values(u0.values.T.copy()), ps2)
    assert np.allclose(uf.values.T, ut.values, atol=1e-10)


def test_flow_preserves_one_dimensionality(ps1, monkeypatch):
    # a lifted 1D profile stays exactly 1D under the flow
    ps = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    x = np.arange(32) * 2.0 / 32
    g = Profile1D(32, 2.0, np.clip(0.5 + 0.45 * np.sin(np.pi * x), 0, 1))
    u0 = make_one_dimensional(g, 1, 2, 32)
    monkeypatch.setattr(flow, "MAX_ITER", 150)
    uf, _ = gradient_flow(u0, ps)
    assert np.max(np.ptp(uf.values, axis=1)) == 0.0


def test_fourier_anisotropy_extremes():
    stripes = make_stripes(StripeSpec(1, 0.5, 0.0), L=2.0, n=16, d=2)
    assert fourier_anisotropy(stripes, 1) > 0.99
    assert fourier_anisotropy(stripes, 2) < 0.01
    const = PeriodicField(2, 16, 2.0, np.full((16, 16), 0.5))
    assert fourier_anisotropy(const, 1) == 0.0


def test_stripe_metrics_identifies_exact_stripes():
    u = make_stripes(StripeSpec(2, 0.5, 0.25), L=2.0, n=16, d=2)
    met = stripe_metrics(u, h_grid=[0.5, 1.0],
                         nu_grid=list(np.arange(16) * 2.0 / 16))
    assert met.best_axis == 2
    assert met.best_h == pytest.approx(0.5)
    assert met.best_nu == pytest.approx(0.25)
    assert met.l1_to_best_stripes == pytest.approx(0.0, abs=1e-12)


def test_stripes_are_local_minimum(ps2, monkeypatch):
    # perturbed optimal stripes flow back to the stripes
    h = 0.5
    ps = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    u = make_stripes(StripeSpec(1, h, 0.0), L=2.0, n=32, d=2)
    monkeypatch.setattr(flow, "MAX_ITER", 2000)
    bench, e_bench = tiled_stripe_benchmark(ps, h, k=2, n=32)
    rng = np.random.default_rng(33)
    pert = np.clip(bench.values + 0.05 * rng.standard_normal((32, 32)),
                   0, 1)
    monkeypatch.setattr(flow, "MAX_ITER", 3000)
    uf, _ = gradient_flow(PeriodicField(2, 32, 2.0, pert), ps)
    assert l1_distance(uf, bench) < 1e-6
    assert total_energy(uf, ps).total == pytest.approx(e_bench, abs=1e-9)


def test_benchmark_energy_beats_constants(ps2, monkeypatch):
    ps = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    monkeypatch.setattr(flow, "MAX_ITER", 2000)
    _, e_bench = tiled_stripe_benchmark(ps, 0.5, k=2, n=32)
    assert e_bench < 0.0  # constants have energy zero


def test_experiment_report_structure(monkeypatch):
    ps = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    monkeypatch.setattr(flow, "MAX_ITER", 400)
    rep = symmetry_breaking_experiment(ps, k=1, n=32, n_seeds=2,
                                       opts=FlowOptions(seed=5), threads=2)
    assert len(rep["runs"]) == 2
    assert 0.0 <= rep["success_fraction"] <= 1.0
    assert rep["L"] == pytest.approx(2 * rep["h_star"])
    for run in rep["runs"]:
        assert set(run) >= {"seed", "energy", "converged",
                            "fourier_anisotropy", "l1_to_best_stripes",
                            "energy_gap_to_1d", "success"}
    # reproducibility: same master seed, same outcome
    rep2 = symmetry_breaking_experiment(ps, k=1, n=32, n_seeds=2,
                                        opts=FlowOptions(seed=5), threads=1)
    for r1, r2 in zip(rep["runs"], rep2["runs"]):
        assert r1["energy"] == pytest.approx(r2["energy"], rel=1e-12)


def test_experiment_evaluates_each_final_energy_once(monkeypatch):
    # the benchmark and every run report the last trace energy of their
    # flow, which is the exact energy of the final field
    calls, finals = {}, []
    evaluate, flow_fn = energy._FieldObjective.energy, flow.gradient_flow

    def counting_energy(self, v):
        key = v.tobytes()
        calls[key] = calls.get(key, 0) + 1
        return evaluate(self, v)

    def recording_flow(*args, **kwargs):
        uf, tr = flow_fn(*args, **kwargs)
        finals.append((uf.values.tobytes(), tr.entries[-1][1]))
        return uf, tr

    monkeypatch.setattr(energy._FieldObjective, "energy", counting_energy)
    monkeypatch.setattr(flow, "gradient_flow", recording_flow)
    monkeypatch.setattr(flow, "MAX_ITER", 300)
    ps = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    rep = symmetry_breaking_experiment(
        ps, k=1, n=16, n_seeds=2, opts=FlowOptions(seed=1),
        h_star=1.5117819735288371, threads=1)
    assert len(finals) == 3          # the benchmark, then one flow per seed
    assert [calls[key] for key, _ in finals] == [1, 1, 1]
    assert rep["benchmark_energy"] == finals[0][1]
    for run, (_, e) in zip(rep["runs"], finals[1:]):
        assert run["energy"] == e
        assert run["energy_gap_to_1d"] == e - rep["benchmark_energy"]


def test_flow_records_max_iter_stops(ps2, monkeypatch):
    rng = np.random.default_rng(35)
    monkeypatch.setattr(flow, "MAX_ITER", 3)
    _, trace = gradient_flow(rough_field(2, 16, 2.0, rng), ps2)
    # the budget runs out in the first stage; the later two start at it
    assert trace.stop == ("max_iter",) * flow.KAPPA_STAGES
    assert (trace.iterations, trace.converged) == (3, False)


def test_flow_from_a_well_constant_stops_on_the_gradient(ps2):
    u0 = PeriodicField(2, 16, 2.0, np.ones((16, 16)))
    uf, trace = gradient_flow(u0, ps2)
    assert trace.stop == ("grad",) * flow.KAPPA_STAGES
    assert trace.converged and trace.iterations == flow.KAPPA_STAGES
    assert np.array_equal(uf.values, u0.values)


def test_experiment_runs_carry_stop_reasons(monkeypatch):
    ps = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    monkeypatch.setattr(flow, "MAX_ITER", 300)
    rep = symmetry_breaking_experiment(
        ps, k=1, n=16, n_seeds=2, opts=FlowOptions(seed=1),
        h_star=1.5117819735288371, threads=1)
    for run in rep["runs"]:
        assert len(run["stop"]) == flow.KAPPA_STAGES
        assert set(run["stop"]) <= set(STOP_REASONS)


@pytest.mark.parametrize("threads", [0, -2])
def test_experiment_rejects_a_nonpositive_thread_count(ps2, threads):
    with pytest.raises(ValueError, match=f"threads={threads}"):
        symmetry_breaking_experiment(ps2, threads=threads)


@pytest.mark.parametrize("n_seeds", [0, -1])
def test_experiment_rejects_a_nonpositive_seed_count(ps2, monkeypatch,
                                                     n_seeds):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking n_seeds")

    # the check comes before the period search and the benchmark flow
    monkeypatch.setattr(flow._onedim, "optimal_period", no_work)
    monkeypatch.setattr(flow, "tiled_stripe_benchmark", no_work)
    with pytest.raises(ValueError, match=f"n_seeds must be >= 1, got "
                                         f"{n_seeds}"):
        symmetry_breaking_experiment(ps2, n_seeds=n_seeds)


@pytest.mark.parametrize("k, n, message", [
    (0, 64, "k must be >= 1, got 0"), (-1, 64, "k must be >= 1, got -1"),
    (2, 30, "2k = 4 must divide n = 30")])
def test_experiment_rejects_a_box_off_the_grid(ps2, monkeypatch, k, n,
                                               message):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking k and n")

    # the check comes before the period search and the benchmark flow
    monkeypatch.setattr(flow._onedim, "optimal_period", no_work)
    monkeypatch.setattr(flow, "tiled_stripe_benchmark", no_work)
    with pytest.raises(ValueError, match=message):
        symmetry_breaking_experiment(ps2, k=k, n=n)


@pytest.mark.parametrize("n", [0, -4])
def test_experiment_rejects_a_nonpositive_n_before_any_work(ps2, monkeypatch,
                                                            n):
    # 2k divides n = 0, so n >= 1 needs a check of its own, before the
    # period search and the stripe search, which warns at n = 0
    searches = []
    monkeypatch.setattr(flow._onedim, "optimal_period",
                        lambda *a, **kw: searches.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            symmetry_breaking_experiment(ps2, n=n, n_seeds=1)
    assert searches == []


@pytest.mark.parametrize("k", [1, 2])
def test_experiment_offers_every_half_period_that_tiles(monkeypatch, k):
    # at the d = 2 h* and n = 60, n (2 (L / 6)) / L rounds to
    # 20.000000000000004 for L = 2k h*: a float test of the tiling dropped
    # L / 6
    offered = []

    def recording_metrics(u, h_grid, nu_grid):
        offered.append(list(h_grid))
        return stripe_metrics(u, h_grid, nu_grid)

    monkeypatch.setattr(flow, "stripe_metrics", recording_metrics)
    monkeypatch.setattr(flow, "MAX_ITER", 3)
    ps = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=2.0)
    rep = symmetry_breaking_experiment(
        ps, k=k, n=60, n_seeds=1, opts=FlowOptions(seed=1),
        h_star=1.5117819735288371, threads=1)
    L = rep["L"]
    assert offered == [[L / (2 * j) for j in range(1, 2 * k + 2)
                        if 60 % (2 * j) == 0]]
    assert L / 6 in offered[0]


def test_trace_csv(tmp_path, ps2, monkeypatch):
    rng = np.random.default_rng(34)
    u0 = rough_field(2, 8, 2.0, rng)
    monkeypatch.setattr(flow, "MAX_ITER", 20)
    _, trace = gradient_flow(u0, ps2)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert len(path.read_text().strip().splitlines()) >= 2
