"""Periodic scalar fields on uniform grids.

Fields live on the torus [0, L)^d sampled at cell corners x_k = k L / n.
All integrals are rectangle-rule sums; the discrete gradient is the forward
difference with periodic wrap (used consistently across the package so the
lattice identities in the lower-bound decomposition hold exactly).

Binary file format (`.pfd`): one-line JSON header {format_version, dims, n,
L, params?} terminated by a newline, followed by little-endian float64
values in row-major order.  A header without ``format_version`` reads as
version "1".
"""

from __future__ import annotations

import json
from builtins import slice as _slice  # this module's slice takes a line
from dataclasses import dataclass, field as _dc_field
from typing import Optional

import numpy as np

from .model import CLAMP_TOL, ModelParams, clamp01


class GridMismatchError(ValueError):
    """Operands live on incompatible grids."""


def check_gamma(gam: np.ndarray) -> None:
    """Reject coefficient samples that are NaN or below 1 - CLAMP_TOL with
    a ValueError naming the smallest; +inf is allowed."""
    worst = np.min(gam)  # NaN if any entry is NaN
    if not worst >= 1.0 - CLAMP_TOL:
        raise ValueError(f"gamma entries must be >= 1, got {worst}")


@dataclass(frozen=True)
class PeriodicField:
    """A [0, L)^d-periodic scalar field with values in [0, 1].

    values has shape (n,) * dims, row-major, sample k at x = k L / n.
    """

    dims: int
    n: int
    L: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n,) * self.dims:
            raise ValueError(
                f"values shape {vals.shape} != {(self.n,) * self.dims}")
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be finite and positive, got {self.L}")
        vals = clamp01(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def h_grid(self) -> float:
        return self.L / self.n

    def mean(self) -> float:
        return float(np.mean(self.values))

    def with_values(self, values: np.ndarray) -> "PeriodicField":
        return PeriodicField(self.dims, self.n, self.L, values)


@dataclass(frozen=True)
class Profile1D:
    """Samples of a profile g on [0, L) (or on a full period [0, 2h)),
    optionally paired with coefficient samples gamma in [1, inf].

    Entries of gamma may be the formal value ``numpy.inf``.
    """

    n: int
    L: float
    g: np.ndarray
    gamma: Optional[np.ndarray] = None

    def __post_init__(self):
        g = clamp01(np.asarray(self.g, dtype=float))
        if g.shape != (self.n,):
            raise ValueError(f"g shape {g.shape} != ({self.n},)")
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be finite and positive, got {self.L}")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)
        if self.gamma is not None:
            gam = np.asarray(self.gamma, dtype=float)
            if gam.shape != (self.n,):
                raise ValueError("gamma must match g in length")
            check_gamma(gam)
            gam = np.maximum(gam, 1.0)
            gam.setflags(write=False)
            object.__setattr__(self, "gamma", gam)

    @property
    def h_grid(self) -> float:
        return self.L / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.h_grid


@dataclass(frozen=True)
class StripeSpec:
    """A periodic union of stripes of half-period h normal to axis
    ``direction`` (1-based), offset by nu in [0, 2h)."""

    direction: int
    h: float
    nu: float = 0.0

    def __post_init__(self):
        if self.direction < 1:
            raise ValueError("direction is a 1-based axis index")
        if self.h <= 0:
            raise ValueError("h must be positive")
        if not (0.0 <= self.nu < 2.0 * self.h + CLAMP_TOL):
            raise ValueError("nu must lie in [0, 2h)")


def line_index(u: PeriodicField, i: int, idx_perp
               ) -> tuple[int, tuple[int, ...]]:
    """The 0-based axis and the perpendicular indices of the grid line
    along (1-based) axis i through ``idx_perp`` (ignored when dims = 1).
    Raises IndexError unless 1 <= i <= dims and ``idx_perp`` holds
    dims - 1 indices in [0, n)."""
    ax = i - 1
    if not (0 <= ax < u.dims):
        raise IndexError(f"axis {i} out of range for dims={u.dims}")
    perp = tuple(np.atleast_1d(idx_perp).astype(int)) if u.dims > 1 else ()
    if len(perp) != u.dims - 1:
        raise IndexError(
            f"need {u.dims - 1} perpendicular indices, got {len(perp)}")
    if any(not (0 <= j < u.n) for j in perp):
        raise IndexError(f"perpendicular index {perp} out of range "
                         f"for n={u.n}")
    return ax, perp


def slice(u: PeriodicField, i: int, idx_perp) -> Profile1D:  # noqa: A001
    """Restrict u to the grid line through the perpendicular indices
    ``idx_perp`` along (1-based) axis i."""
    ax, perp = line_index(u, i, idx_perp)
    return Profile1D(u.n, u.L, u.values[perp[:ax] + (np.s_[:],) + perp[ax:]])


def roll(v: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """``np.roll(v, shift, axis=axis)`` as one concatenate of two basic
    slices: the same array, without np.roll's per-call overhead."""
    cut = v.shape[axis] - shift % v.shape[axis]
    lead = (_slice(None),) * axis
    return np.concatenate((v[lead + (_slice(cut, None),)],
                           v[lead + (_slice(cut),)]), axis=axis)


def differences(v: np.ndarray) -> list[np.ndarray]:
    """The raw forward differences with periodic wrap, v[. + e_i] - v, one
    array per axis: the package's one discrete-gradient stencil.  A 1D
    array is differenced by slices into one new array, the same values
    bit for bit at half the cost of a roll at the sizes of the profile
    descent."""
    if v.ndim == 1:
        dv = np.empty(v.shape, v.dtype)
        np.subtract(v[1:], v[:-1], out=dv[:-1])
        dv[-1] = v[0] - v[-1]
        return [dv]
    return [roll(v, -1, ax) - v for ax in range(v.ndim)]


def gradient(u: PeriodicField) -> list[np.ndarray]:
    """Forward differences with periodic wrap, one grid per axis:
    (u[. + e_i] - u) / h_grid."""
    if u.n < 2:
        raise ValueError(f"n must be >= 2, got {u.n}")
    h = u.h_grid
    return [t / h for t in differences(u.values)]


def make_one_dimensional(g: Profile1D, i: int, d: int, n: int) -> PeriodicField:
    """Extend a 1D profile to a d-dimensional field u(x) = g(x_i)."""
    if g.n != n:
        raise ValueError(f"profile has {g.n} samples, grid wants {n}")
    ax = i - 1
    if not (0 <= ax < d):
        raise IndexError(f"axis {i} out of range for d={d}")
    shape = [1] * d
    shape[ax] = n
    vals = np.broadcast_to(g.g.reshape(shape), (n,) * d)
    return PeriodicField(d, n, g.L, np.array(vals))


def check_stripe_period(h: float, L: float, n: int) -> None:
    """Raise ValueError unless stripes of half-period h tile the n-cell
    grid of [0, L): the full period 2h must divide L and span an integer
    number of cells, to grid tolerance."""
    if h <= 0:
        raise ValueError("h must be positive")
    ratio = L / (2.0 * h)
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ValueError(f"full period 2h={2 * h} must divide L={L}")
    width = n * (2.0 * h) / L
    if abs(width - round(width)) > 1e-9:
        raise ValueError("2h must span an integer number of grid cells")


def stripe_line(h: float, nu: float, L: float, n: int) -> np.ndarray:
    """The binary stripe profile of half-period h and offset nu at the n
    samples x_k = k L / n (each cell takes the value at its corner); the
    period is not checked (see ``check_stripe_period``)."""
    x = np.arange(n) * (L / n)
    phase = np.mod(x - nu, 2.0 * h)
    return (phase < h - 1e-12 * L).astype(float)


def make_stripes(spec: StripeSpec, L: float, n: int, d: int = 2
                 ) -> PeriodicField:
    """Rasterize the stripe set's characteristic function onto an n^d grid.

    Each cell takes the value at its corner sample (binary output). The full
    period 2h must divide L to grid tolerance.
    """
    check_stripe_period(spec.h, L, n)
    ax = spec.direction - 1
    if not (0 <= ax < d):
        raise IndexError(f"axis {spec.direction} out of range for d={d}")
    line = stripe_line(spec.h, spec.nu, L, n)
    return make_one_dimensional(Profile1D(n, L, line), spec.direction, d, n)


def l1_distance(u: PeriodicField, v: PeriodicField) -> float:
    """Rectangle-rule L1 distance over one period."""
    if (u.dims, u.n) != (v.dims, v.n) or abs(u.L - v.L) > CLAMP_TOL * max(u.L, v.L):
        raise GridMismatchError("fields live on different grids")
    return float(np.sum(np.abs(u.values - v.values)) * u.h_grid ** u.dims)


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

PFD_FORMAT_VERSION = "1"


def write_pfd(path, u: PeriodicField, params: ModelParams | None = None
              ) -> None:
    header = {"format_version": PFD_FORMAT_VERSION, "dims": u.dims,
              "n": u.n, "L": u.L}
    if params is not None:
        header["params"] = params.to_dict()
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def read_pfd(path) -> tuple[PeriodicField, Optional[ModelParams]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        raw = fh.read()
    version = header.get("format_version", PFD_FORMAT_VERSION)
    if version != PFD_FORMAT_VERSION:
        raise ValueError(f"{path}: .pfd format version {version!r} is not "
                         f"supported (expected {PFD_FORMAT_VERSION!r})")
    dims, n, L = int(header["dims"]), int(header["n"]), float(header["L"])
    if len(raw) != 8 * n ** dims:
        raise ValueError(f"{path}: expected {8 * n ** dims} bytes of values "
                         f"after the header, found {len(raw)}")
    vals = np.frombuffer(raw, dtype="<f8").reshape((n,) * dims)
    params = None
    if header.get("params") is not None:
        params = ModelParams.from_dict(header["params"])
    return PeriodicField(dims, n, L, vals.copy()), params


def write_profile_csv(path, profile: Profile1D) -> None:
    """Columns x,g and, when coefficients are present, x,g,gamma."""
    cols = [profile.x, profile.g]
    header = "x,g"
    if profile.gamma is not None:
        cols.append(profile.gamma)
        header += ",gamma"
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
               comments="")
