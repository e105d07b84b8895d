"""The shared projected Barzilai-Borwein descent and golden-section search,
and the errors their callers raise when the search range holds no
interior minimum."""
import numpy as np
import pytest

from stripes.energy import optimal_sharp_period
from stripes.onedim import ConvergenceError, optimal_period
from stripes.solvers import NoBracketError, golden_section, projected_bb


def test_projected_bb_separable_quadratic_hits_clipped_minimizer():
    rng = np.random.default_rng(40)
    w = rng.uniform(0.5, 5.0, 30)
    center = rng.uniform(-1.0, 2.0, 30)       # about half outside [0, 1]

    def energy(x):
        return 0.5 * float(np.sum(w * (x - center) ** 2))

    def grad(x):
        return w * (x - center)

    x0 = np.full(30, 0.5)
    res = projected_bb(x0, energy(x0), energy, grad, 0.0, 1.0, step0=1.0,
                       max_iter=500, tol_grad=1e-6, tol_energy=1e-300,
                       trace_every=1)
    assert res.converged and res.grad_norm < 1e-6
    # active samples sit exactly on their bound, free ones within
    # tol_grad / min(w) of the centre
    clipped = np.clip(center, 0.0, 1.0)
    active = clipped != center
    assert np.array_equal(res.x[active], clipped[active])
    assert np.max(np.abs(res.x - clipped)) < 2e-6
    energies = [energy(x0)] + [e for _, e, _ in res.trace]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    # the last iteration finds the projected gradient small and takes no step
    assert [it for it, _, _ in res.trace] == list(range(1, res.iterations))


def test_golden_section_evaluates_each_point_once():
    calls = []

    def f(t):
        calls.append(t)
        return (t - 1.3) ** 2

    x, v = golden_section(f, 0.0, 4.0, rel_tol=1e-6)
    assert len(calls) == len(set(calls))
    assert x in calls and v == (x - 1.3) ** 2


@pytest.mark.parametrize("h_range", [(10.0, 100.0), (0.01, 0.1)])
def test_optimal_sharp_period_without_interior_minimum(ps1, h_range):
    # the sharp optimum of PS1 sits at h* ~ 2.68
    with pytest.raises(NoBracketError):
        optimal_sharp_period(ps1, h_range=h_range)


def test_optimal_period_without_interior_minimum(ps1):
    # the 1D optimum of PS1 sits at h* ~ 1.58, below the whole range
    with pytest.raises(ConvergenceError, match="no interior minimum") as exc:
        optimal_period(ps1, (4.0, 16.0), grid=4, n=64)
    assert len(exc.value.trace) == 4
