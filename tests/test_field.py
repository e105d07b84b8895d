import json

import numpy as np
import pytest

from stripes.field import (GridMismatchError, PeriodicField, Profile1D,
                           StripeSpec, gradient, l1_distance,
                           make_one_dimensional, make_stripes, read_pfd,
                           slice as field_slice, write_pfd,
                           write_profile_csv)
from stripes.model import ModelParams


def test_field_shape_validation():
    with pytest.raises(ValueError):
        PeriodicField(2, 4, 1.0, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        PeriodicField(1, 4, -1.0, np.zeros(4))


def test_field_values_clamped_and_frozen():
    u = PeriodicField(1, 4, 1.0, np.array([0.0, 1.0 + 1e-13, 0.5, 0.25]))
    assert u.values.max() == 1.0
    with pytest.raises(ValueError):
        u.values[0] = 0.3


def test_stripes_raster_geometry():
    u = make_stripes(StripeSpec(1, 0.5, 0.0), L=2.0, n=8, d=2)
    col = u.values[:, 0]
    assert np.array_equal(col, u.values[:, 5])
    assert set(np.unique(u.values)) <= {0.0, 1.0}
    assert u.mean() == pytest.approx(0.5)


def test_stripes_axis_and_phase():
    u1 = make_stripes(StripeSpec(1, 0.5, 0.0), L=2.0, n=8, d=2)
    u2 = make_stripes(StripeSpec(2, 0.5, 0.0), L=2.0, n=8, d=2)
    assert np.array_equal(u1.values, u2.values.T)
    shifted = make_stripes(StripeSpec(1, 0.5, 0.5), L=2.0, n=8, d=2)
    assert np.array_equal(shifted.values,
                          np.roll(u1.values, 2, axis=0))


def test_stripes_requires_commensurate_grid():
    with pytest.raises((ValueError, GridMismatchError)):
        make_stripes(StripeSpec(1, 0.3, 0.0), L=2.0, n=8, d=2)


def test_one_dimensional_lift_and_slice():
    g = Profile1D(8, 2.0, np.linspace(0, 1, 8))
    u = make_one_dimensional(g, 2, 2, 8)
    # constant along every line parallel to the other axis
    assert np.all(np.ptp(u.values, axis=0) == 0.0)
    back = field_slice(u, 2, (3,))
    assert np.allclose(back.g, g.g)


def test_l1_distance_volume_weighted():
    a = PeriodicField(2, 4, 2.0, np.zeros((4, 4)))
    b = PeriodicField(2, 4, 2.0, np.full((4, 4), 0.25))
    assert l1_distance(a, b) == pytest.approx(0.25 * 2.0 ** 2)
    with pytest.raises((ValueError, GridMismatchError)):
        l1_distance(a, PeriodicField(2, 8, 2.0, np.zeros((8, 8))))


def test_gradient_forward_difference():
    vals = np.array([[0.0, 1.0], [0.25, 0.5]])
    u = PeriodicField(2, 2, 2.0, vals)
    gx, gy = gradient(u)
    assert gx[0, 0] == pytest.approx((0.25 - 0.0) / 1.0)
    assert gy[0, 0] == pytest.approx((1.0 - 0.0) / 1.0)


def test_pfd_roundtrip(tmp_path, ps2):
    rng = np.random.default_rng(0)
    u = PeriodicField(2, 6, 2.0, rng.uniform(0, 1, (6, 6)))
    path = tmp_path / "field.pfd"
    write_pfd(path, u, ps2)
    v, ps_back = read_pfd(path)
    assert np.array_equal(u.values, v.values)
    assert v.L == u.L and v.dims == 2
    assert ps_back == ps2


def test_pfd_roundtrip_without_params(tmp_path):
    u = PeriodicField(1, 5, 1.5, np.linspace(0, 1, 5))
    path = tmp_path / "f.pfd"
    write_pfd(path, u)
    v, ps_back = read_pfd(path)
    assert ps_back is None
    assert np.array_equal(u.values, v.values)


def test_pfd_header_carries_format_version(tmp_path):
    path = tmp_path / "f.pfd"
    write_pfd(path, PeriodicField(1, 4, 1.0, np.full(4, 0.5)))
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["format_version"] == "1"


def _write_raw_pfd(path, header, values):
    path.write_bytes((json.dumps(header) + "\n").encode()
                     + np.asarray(values, dtype="<f8").tobytes())


def test_read_pfd_rejects_foreign_format_version(tmp_path):
    path = tmp_path / "f.pfd"
    _write_raw_pfd(path, {"format_version": "2", "dims": 1, "n": 4,
                          "L": 1.0}, np.full(4, 0.5))
    with pytest.raises(ValueError, match=r"f\.pfd: .*version '2'"):
        read_pfd(path)


def test_read_pfd_accepts_header_without_format_version(tmp_path, ps2):
    # the header as written before it carried a version
    path = tmp_path / "old.pfd"
    values = np.full((4, 4), 0.25)
    _write_raw_pfd(path, {"dims": 2, "n": 4, "L": 2.0,
                          "params": ps2.to_dict()}, values)
    v, ps_back = read_pfd(path)
    assert np.array_equal(v.values, values) and ps_back == ps2


@pytest.mark.parametrize("payload", ["truncated", "trailing"])
def test_read_pfd_rejects_wrong_payload_size(tmp_path, payload):
    path = tmp_path / "f.pfd"
    write_pfd(path, PeriodicField(2, 4, 1.0, np.full((4, 4), 0.5)))
    data = path.read_bytes()
    path.write_bytes(data[:-8] if payload == "truncated" else data + b"xyz")
    found = 120 if payload == "truncated" else 131
    with pytest.raises(ValueError,
                       match=rf"f\.pfd: expected 128 bytes .* found {found}"):
        read_pfd(path)


def test_profile_csv(tmp_path):
    g = Profile1D(4, 1.0, np.array([0.5, 0.75, 1.0, 0.75]))
    path = tmp_path / "p.csv"
    write_profile_csv(path, g)
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("x")
    assert len(rows) == 5


def test_stripe_spec_phase_range():
    with pytest.raises(ValueError):
        StripeSpec(1, 0.5, 1.5)
    with pytest.raises(ValueError):
        StripeSpec(1, 0.5, -0.2)


def test_profile_gamma_validation():
    with pytest.raises(ValueError):
        Profile1D(4, 1.0, np.full(4, 0.5), gamma=np.full(4, 0.5))
    p = Profile1D(4, 1.0, np.full(4, 0.5), gamma=np.full(4, np.inf))
    assert np.all(np.isinf(p.gamma))


def test_profile_rejects_a_nan_gamma():
    with pytest.raises(ValueError, match="got nan"):
        Profile1D(4, 1.0, np.full(4, 0.5), gamma=[1.0, np.nan, 2.0, 1.0])
