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
