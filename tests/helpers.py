"""Shared constructors for test fields and profiles, and reference loops
that tests compare the library against."""
from __future__ import annotations

import itertools

import numpy as np

from stripes import kernel
from stripes.field import PeriodicField
from stripes.model import ModelParams


def smooth_field(d: int, n: int, L: float, rng: np.random.Generator,
                 modes: int = 3, amp: float = 0.12) -> PeriodicField:
    """A band-limited random field with values in [0, 1]: a constant 1/2
    plus a few low-frequency separable sine modes, clipped."""
    x = np.arange(n) * L / n
    vals = 0.5 * np.ones((n,) * d)
    for _ in range(modes):
        kvec = rng.integers(1, 4, d)
        ph = rng.uniform(0, 2 * np.pi, d)
        a = rng.normal(0, amp)
        w = a * np.ones((n,) * d)
        for ax in range(d):
            shape = [1] * d
            shape[ax] = n
            w = w * np.sin(2 * np.pi * kvec[ax] * x / L + ph[ax]
                           ).reshape(shape)
        vals = vals + w
    return PeriodicField(d, n, L, np.clip(vals, 0.0, 1.0))


def rough_field(d: int, n: int, L: float, rng: np.random.Generator
                ) -> PeriodicField:
    """Uniform iid samples in [0, 1] (no spatial regularity)."""
    return PeriodicField(d, n, L, rng.uniform(0.0, 1.0, (n,) * d))


def smooth_profile(n: int, L: float, rng: np.random.Generator,
                   modes: int = 3, amp: float = 0.15) -> np.ndarray:
    """Band-limited random profile values in [0, 1]."""
    x = np.arange(n) * L / n
    g = 0.5 * np.ones(n)
    for k in range(1, modes + 1):
        g += rng.normal(0, amp) * np.sin(2 * np.pi * k * x / L
                                         + rng.uniform(0, 2 * np.pi))
    return np.clip(g, 0.0, 1.0)


def cross_term_direct(u: PeriodicField, i: int, params: ModelParams,
                      trunc_radius: float | None = None, tol: float = 1e-7
                      ) -> float:
    """Reference cross term by the all-lags loop: one roll and one sum of
    squared brackets per lag (O(n^(2d)); small grids only).  Same
    definition and normalisation as ``decomposition.cross_term``."""
    ax = i - 1
    n, d = u.n, u.dims
    vals = u.values
    vol2 = u.h_grid ** (2 * d)
    axes = tuple(range(d))
    if trunc_radius is None:
        kgrid = kernel.periodized_kernel_grid(u.L, u.n, params, tol=tol)
        total = 0.0
        for lag in itertools.product(range(n), repeat=d):
            t1 = np.roll(vals, -lag[ax], axis=ax) - vals
            perp = [0 if a == ax else -z for a, z in enumerate(lag)]
            bracket = t1 - np.roll(t1, perp, axis=axes)
            total += kgrid[lag] * float(np.sum(bracket ** 2))
        return total * vol2 / (2.0 * d)

    m_max = int(np.floor(trunc_radius / u.h_grid))
    total = 0.0
    for mi in range(1, m_max + 1):
        t1 = np.roll(vals, -(mi % n), axis=ax) - vals
        for mperp in itertools.product(range(-m_max, m_max + 1),
                                       repeat=d - 1):
            lag_perp = [-(m % n) for m in mperp]
            lag_perp.insert(ax, 0)
            norm1 = (mi + sum(abs(m) for m in mperp)) * u.h_grid
            bracket = t1 - np.roll(t1, lag_perp, axis=axes)
            total += ((norm1 + params.kernel_scale) ** (-params.p)
                      * float(np.sum(bracket ** 2)))
    return total * vol2 / d


def _box_int_direct(lo, hi, a: float, pe: float) -> float:
    """integral over the box prod [lo_i, hi_i] of (sum |x_i| + a)^(-pe) dx,
    one point at a time, splitting each range at 0."""
    if len(lo) == 0:
        return a ** (-pe)
    l, h = lo[0], hi[0]
    total = 0.0
    segs = []
    if l < 0.0:
        segs.append((abs(min(h, 0.0)), abs(l)))
    if h > 0.0:
        segs.append((max(l, 0.0), h))
    for (u0, u1) in segs:  # integrate du over [u0, u1] with u = |x_1|
        total += (_box_int_direct(lo[1:], hi[1:], a + u0, pe - 1.0)
                  - _box_int_direct(lo[1:], hi[1:], a + u1, pe - 1.0)
                  ) / (pe - 1.0)
    return total


def periodized_values_direct(points: np.ndarray, dim: int, pe: float,
                             a: float, L: float, tol: float,
                             shells: int | None = None
                             ) -> tuple[np.ndarray, int, float]:
    """Reference periodization by the per-point shell loop: sum
    f = (||.||_1 + a)^(-pe) over the (2m+1)^dim images of each point
    (shape (..., dim)), plus the far-field cell-integral correction from
    one recursive box integral per point (O(points (2m+1)^dim); small
    grids or few points only).  Same shell choice, certificate and return
    value (values, shells_used, certified_error) as
    ``kernel._periodized_lattice``."""
    if shells is None:
        m = 2
        while kernel._truncation_bound(m, dim, pe, a, L) > tol:
            m *= 2
            if m > 4096:
                raise kernel.TruncationError(
                    f"periodization tolerance {tol} unreachable (shells > 4096)")
    else:
        m = int(shells)
    cert = kernel._truncation_bound(m, dim, pe, a, L)

    ks = np.arange(-m, m + 1, dtype=float) * L
    if dim == 1:
        x = points[..., 0]
        direct = np.sum((np.abs(x[..., None] + ks) + a) ** (-pe), axis=-1)
    elif dim == 2:
        x1 = points[..., 0]
        x2 = points[..., 1]
        a2 = np.abs(x2[..., None] + ks)          # (..., nk)
        direct = np.zeros(x1.shape, dtype=float)
        for k1 in ks:
            r1 = np.abs(x1 + k1)
            direct += np.sum((r1[..., None] + a2 + a) ** (-pe), axis=-1)
    elif dim == 3:
        x1, x2, x3 = points[..., 0], points[..., 1], points[..., 2]
        a3 = np.abs(x3[..., None] + ks)
        direct = np.zeros(x1.shape, dtype=float)
        for k1 in ks:
            r1 = np.abs(x1 + k1)
            for k2 in ks:
                r12 = r1 + np.abs(x2 + k2)
                direct += np.sum((r12[..., None] + a3 + a) ** (-pe), axis=-1)
    else:
        raise ValueError("only dim <= 3 supported")

    # far field: (1/L^dim) * integral of f over the complement of the summed box
    M = (m + 0.5) * L
    total = kernel._family_mass(dim, pe, a)
    flat = points.reshape(-1, dim)
    corr = np.empty(flat.shape[0])
    for i, x in enumerate(flat):
        lo = [float(xi) - M for xi in x]
        hi = [float(xi) + M for xi in x]
        corr[i] = (total - _box_int_direct(lo, hi, a, pe)) / L ** dim
    return direct + corr.reshape(direct.shape), m, cert
