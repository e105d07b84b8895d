"""The line-search certificate of the 2D flow: ``_FieldObjective.slope_bound``
bounds the exact energy along the clipped descent path from below,
F(clip(v - s g)) - F(v) >= s slope - s^2 curv for s <= s_max, and it is
offered only where that bound holds (C_tau > 1).  s_max, the first step
at which a moving sample reaches a bound, is the solver's
(``solvers._step_to_bound``; its pins are in test_solvers.py)."""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import count_ffts
from stripes import energy, flow, solvers
from stripes.field import PeriodicField
from stripes.flow import gradient_flow
from stripes.model import ModelParams

MAX_N = {2: 10, 3: 5}
# the smoothing scales of the flow's kappa stages
KAPPAS = [flow.KAPPA / 10.0 ** k for k in range(flow.KAPPA_STAGES)]
# samples on both bounds and on a few shared levels, so that fields have
# exact ties D_i v = 0 (the kinks of the 1-norm) as well as generic values
SAMPLE = st.one_of(st.sampled_from([0.0, 1.0, 0.25, 0.5]),
                   st.floats(0.0, 1.0))


@st.composite
def cases(draw):
    """(objective, field, direction g) with C_tau > 1; g is the flow's
    kappa-gradient of the field or an arbitrary array."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, MAX_N[d]))
    L = draw(st.floats(0.5, 3.0))
    params = ModelParams(d=d, p=draw(st.floats(d + 2.0, d + 4.0)),
                         tau=draw(st.floats(0.01, 0.5)),
                         eps=draw(st.floats(0.01, 0.2)), L=L)
    obj = energy._FieldObjective(params, L, n)
    assume(obj.c1 > 0)
    v = draw(arrays(float, (n,) * d, elements=SAMPLE))
    if draw(st.booleans()):
        g = obj.grad(v, draw(st.sampled_from(KAPPAS)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        g = draw(st.floats(1e-3, 1e3)) * rng.uniform(-1.0, 1.0, v.shape)
    return obj, v, g


_PS = ModelParams(d=2, p=4.0, tau=0.05, eps=0.05, L=1.0)
# s = s_max / 10 is below half an ulp of every moving sample of v = 1^-,
# so the trial is v bit for bit, while the exact-arithmetic bound is 6e-29
_STILL = (energy._FieldObjective(_PS, 1.0, 2),
          np.full((2, 2), np.nextafter(1.0, 0.0)),
          np.array([[0.274, -0.460], [-0.918, -0.967]]))
# v = 0.99999: the trial rounds each move of s |g| ~ 1e-13 to a multiple
# of ulp(1), so the step taken differs from the nominal s by up to ~1e-3
# relatively, far beyond the 1e-12 allowance (the example of a rounding
# failure of a comparison at the nominal step; its objective's parameters
# were not recorded, and these fail that comparison as every d = 2, n = 2
# objective with C_tau > 1 that was tried does)
_ROUNDED = (energy._FieldObjective(_PS, 1.0, 2), np.full((2, 2), 0.99999),
            np.array([[-0.82870167, -0.52637899],
                      [0.60254893, 0.16432407]]))


@settings(max_examples=300, deadline=None)
@given(case=cases(), frac=st.floats(-10.0, 0.0))
@example(case=_STILL, frac=-1.0)
@example(case=_ROUNDED, frac=-8.0)
def test_slope_bound_is_a_lower_bound_along_the_clipped_path(case, frac):
    obj, v, g = case
    assert obj.certificate() == obj.slope_bound
    # the drawn direction and its opposite: where one descends, the other
    # has an ascent slope, the only case in which the bound is finite
    for g in (g, -g):
        slope, curv = obj.slope_bound(v, g)
        assert curv >= 0.0
        # without an ascent slope the bound certifies nothing and says so
        assert (curv == np.inf) == (not slope > 0)
        # a step up to s_max (any step when no sample moves: the trial is
        # then v), and the trial it rounds to
        s_max = solvers._step_to_bound(v, g, 0.0, 1.0)
        s = (s_max if np.isfinite(s_max) else 1.0) * 10.0 ** frac
        trial = np.clip(v - s * g, 0.0, 1.0)
        change = obj.energy(trial) - obj.energy(v)
        if np.array_equal(trial, v):
            # a trial that does not move lowers nothing
            assert change == 0.0
            continue
        # the bound along the displacement P = trial - v that the rounded
        # trial realizes: the direction g' = -P/s reaches the trial at s
        # on a segment inside the box, so no sample is clipped; without an
        # ascent slope it is -inf
        slope, curv = obj.slope_bound(v, -(trial - v) / s)
        assert (curv == np.inf) == (not slope > 0)
        if slope > 0:
            mm, nl = obj.split(v)
            assert change >= (s * slope - s * s * curv
                              - 1e-12 * (abs(mm) + abs(nl)))


def test_slope_bound_is_the_derivative_off_kinks_and_bounds(ps2):
    # no ties, no sample on a bound: the clipped path is v + s d with
    # d = -g, and slope is its exact derivative
    rng = np.random.default_rng(5)
    obj = energy._FieldObjective(ps2, 2.0, 16)
    v = rng.uniform(0.2, 0.8, (16, 16))
    g = obj.grad(v, flow.KAPPA)
    slope, curv = obj.slope_bound(v, g)
    s_max = solvers._step_to_bound(v, g, 0.0, 1.0)
    assert s_max == pytest.approx(np.min(np.where(g > 0, v, 1.0 - v)
                                         / np.abs(g)), rel=1e-15)
    assert slope < 0        # the smoothed gradient descends off kinks
    s = 1e-6 * s_max
    fd = (obj.energy(v - s * g) - obj.energy(v + s * g)) / (2 * s)
    assert fd == pytest.approx(slope, rel=1e-5)


def test_slope_bound_is_the_one_sided_derivative_at_kinks(ps2):
    # 4x4 blocks of one value each: most differences D_i v are exactly 0,
    # and there slope counts |D_i d| of the (rough) direction
    rng = np.random.default_rng(9)
    obj = energy._FieldObjective(ps2, 2.0, 16)
    v = np.kron(rng.uniform(0.2, 0.8, (4, 4)), np.ones((4, 4)))
    g = rng.uniform(-1.0, 1.0, v.shape)
    slope, _ = obj.slope_bound(v, g)
    s = 1e-7 * solvers._step_to_bound(v, g, 0.0, 1.0)
    assert (obj.energy(v - s * g) - obj.energy(v)) / s \
        == pytest.approx(slope, rel=1e-5)


def test_slope_bound_reuses_the_nonlocal_gradient_of_the_last_grad(ps2):
    rng = np.random.default_rng(6)
    obj = energy._FieldObjective(ps2, 2.0, 12)
    v = rng.uniform(0.0, 1.0, (12, 12))
    g = obj.grad(v, flow.KAPPA)
    reused = obj.slope_bound(v, g)
    fresh = energy._FieldObjective(ps2, 2.0, 12).slope_bound(v.copy(), g)
    assert reused == fresh


def test_slope_bound_reads_the_iterate_after_a_rejected_trial(ps2,
                                                             monkeypatch):
    rng = np.random.default_rng(10)
    obj = energy._FieldObjective(ps2, 2.0, 12)
    v = rng.uniform(0.0, 1.0, (12, 12))
    g = obj.grad(v, flow.KAPPA)
    obj.energy(np.clip(v - 1e3 * g, 0.0, 1.0))     # a trial evaluated after
    calls = count_ffts(monkeypatch)
    down = obj.slope_bound(v, g)
    # the flow's direction descends: nothing to certify, no transform
    assert calls == {} and down[0] <= 0 and down[1] == np.inf
    up = obj.slope_bound(v, -g)
    assert calls == {"rfftn": 1}        # NL(d) only; v's terms are kept
    assert up[0] > 0 and np.isfinite(up[1])
    monkeypatch.undo()
    fresh = energy._FieldObjective(ps2, 2.0, 12)
    assert down == fresh.slope_bound(v.copy(), g)
    assert up == fresh.slope_bound(v.copy(), -g)


def test_slope_bound_pins_samples_pushed_out_of_the_box(ps2):
    obj = energy._FieldObjective(ps2, 2.0, 8)
    v = np.full((8, 8), 0.5)
    v[0, 0], v[1, 1] = 0.0, 1.0
    g = np.zeros((8, 8))
    g[0, 0], g[1, 1] = 1.0, -1.0    # both pushed out: nothing moves
    assert obj.slope_bound(v, g) == (0.0, np.inf)


def test_no_certificate_when_c_tau_is_at_most_one(monkeypatch):
    # d=2, p=4: C_tau = (2/3) / tau, so tau = 1 gives C_tau - 1 < 0 and
    # the interfacial term is concave
    params = ModelParams(d=2, p=4.0, tau=1.0, eps=0.05, L=2.0)
    obj = energy._FieldObjective(params, 2.0, 8)
    assert obj.c1 < 0 and obj.certificate() is None
    given_certify = []
    descend = flow.projected_bb

    def spy(*args, **kwargs):
        given_certify.append(kwargs["certify"])
        return descend(*args, **kwargs)

    monkeypatch.setattr(flow, "projected_bb", spy)
    u0 = PeriodicField(2, 8, 2.0,
                       np.random.default_rng(7).uniform(0, 1, (8, 8)))
    monkeypatch.setattr(flow, "MAX_ITER", 20)
    gradient_flow(u0, params)
    assert given_certify == [None] * flow.KAPPA_STAGES


def test_flow_counts_every_energy_call_of_its_stages(ps2, monkeypatch):
    calls = []
    evaluate = energy._FieldObjective.energy

    def counted(self, v):
        calls.append(1)
        return evaluate(self, v)

    monkeypatch.setattr(energy._FieldObjective, "energy", counted)
    u0 = PeriodicField(2, 16, 2.0,
                       np.random.default_rng(8).uniform(0, 1, (16, 16)))
    monkeypatch.setattr(flow, "MAX_ITER", 200)
    _, tr = gradient_flow(u0, ps2)
    # the flow evaluates its start once; the stages make every other call
    assert sum(tr.evals) == len(calls) - 1 > 0
    assert len(tr.evals) == len(tr.grad_norm) == flow.KAPPA_STAGES
    assert all(g >= 0.0 for g in tr.grad_norm)
