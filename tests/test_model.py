import numpy as np
import pytest
from hypothesis import given, strategies as st

from stripes import kernel
from stripes.model import (DomainError, ModelParams, clamp01, double_well,
                           double_well_prime, omega_gap_ratio,
                           transition_energy)


def test_derived_exponents_d1(ps1):
    assert ps1.beta == pytest.approx(1.0)
    assert ps1.q == pytest.approx(3.0)
    assert ps1.kernel_scale == pytest.approx(0.05)
    assert ps1.alpha == pytest.approx(0.05 * 0.05)


def test_derived_exponents_d2(ps2):
    assert ps2.beta == pytest.approx(1.0)
    assert ps2.q == pytest.approx(3.0)
    assert ps2.kernel_scale == pytest.approx(0.05)
    assert kernel.j_c(ps2) == pytest.approx(2.0 / 3.0)


def test_rejects_divergent_first_moment():
    with pytest.raises(ValueError, match="d\\+1"):
        ModelParams(d=1, p=1.5, tau=0.05, eps=0.05, L=1.0)
    with pytest.raises(ValueError, match="d\\+1"):
        ModelParams(d=2, p=3.0, tau=0.05, eps=0.05, L=1.0)


def test_small_p_requires_override():
    with pytest.raises(ValueError, match="allow_small_p"):
        ModelParams(d=1, p=2.5, tau=0.05, eps=0.05, L=1.0)
    ps = ModelParams(d=1, p=2.5, tau=0.05, eps=0.05, L=1.0,
                     allow_small_p=True)
    assert ps.beta == pytest.approx(0.5)


def test_large_tau_requires_override():
    with pytest.raises(ValueError, match="allow_large_tau"):
        ModelParams(d=1, p=3.0, tau=2.0, eps=0.05, L=1.0)
    ModelParams(d=1, p=3.0, tau=2.0, eps=0.05, L=1.0, allow_large_tau=True)


def test_rejects_nonpositive_parameters():
    for kw in (dict(tau=-0.1), dict(eps=0.0), dict(L=0.0), dict(d=0)):
        base = dict(d=1, p=3.0, tau=0.05, eps=0.05, L=1.0)
        base.update(kw)
        with pytest.raises(ValueError):
            ModelParams(**base)


@pytest.mark.parametrize("name, value", [
    ("p", float("nan")), ("tau", float("nan")), ("eps", float("nan")),
    ("L", float("nan")), ("p", float("inf")), ("eps", float("inf")),
    ("L", float("inf")), ("tau", float("inf")), ("L", float("-inf")),
])
def test_rejects_non_finite_parameters(name, value):
    # NaN fails every comparison, so each check must be one NaN fails
    base = dict(d=1, p=3.0, tau=0.05, eps=0.05, L=1.0, allow_large_tau=True)
    base[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite, got"):
        ModelParams(**base)


def test_clamp01_rejects_nan():
    with pytest.raises(DomainError, match="value nan outside"):
        clamp01(float("nan"))
    with pytest.raises(DomainError, match="value nan outside"):
        clamp01(np.array([0.2, np.nan, 0.7]))
    assert clamp01(np.array([0.0, 1.0 + 1e-13]))[1] == 1.0


def test_double_well_values():
    assert double_well(0.0) == 0.0
    assert double_well(1.0) == 0.0
    assert double_well(0.5) == pytest.approx(1.0 / 16.0)
    t = np.linspace(0, 1, 101)
    assert np.allclose(double_well(t), double_well(1.0 - t))


def test_double_well_prime_matches_fd():
    t = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (double_well(t + h) - double_well(t - h)) / (2 * h)
    assert np.allclose(double_well_prime(t), fd, atol=1e-8)


def test_transition_energy_endpoints_and_derivative():
    assert transition_energy(0.0) == 0.0
    assert transition_energy(1.0) == pytest.approx(1.0)
    assert transition_energy(0.5) == pytest.approx(0.5)
    t = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (transition_energy(t + h) - transition_energy(t - h)) / (2 * h)
    assert np.allclose(fd, 6.0 * np.sqrt(double_well(t)), atol=1e-7)


def test_clamp_rejects_out_of_range():
    with pytest.raises(DomainError):
        clamp01(1.5)
    with pytest.raises(DomainError):
        clamp01(np.array([0.2, -0.3]))
    assert clamp01(1.0 + 1e-13) == 1.0


def test_omega_gap_ratio_equality_cases():
    assert omega_gap_ratio(1.0, 0.0) == pytest.approx(1.0)
    assert omega_gap_ratio(0.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        omega_gap_ratio(0.3, 0.3)


@given(st.floats(0, 1), st.floats(0, 1))
def test_omega_gap_ratio_at_least_one(a, b):
    if (a - b) ** 2 == 0.0:
        with pytest.raises(DomainError):
            omega_gap_ratio(a, b)
        return
    assert omega_gap_ratio(a, b) >= 1.0 - 1e-12


def test_to_from_dict_roundtrip(ps1):
    assert ModelParams.from_dict(ps1.to_dict()) == ps1


@pytest.mark.parametrize("params, flags", [
    (ModelParams(d=1, p=3.0, tau=0.05, eps=0.05, L=1.0), []),
    (ModelParams(d=1, p=2.5, tau=0.05, eps=0.05, L=1.0, allow_small_p=True),
     ["allow_small_p"]),
    (ModelParams(d=2, p=4.0, tau=2.0, eps=0.05, L=1.0, allow_large_tau=True),
     ["allow_large_tau"]),
], ids=["default", "allow_small_p", "allow_large_tau"])
def test_to_dict_records_only_the_flags_that_are_set(params, flags):
    obj = params.to_dict()
    assert list(obj) == ["d", "p", "tau", "eps", "L", *flags]
    assert ModelParams.from_dict(obj) == params
