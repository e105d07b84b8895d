"""Shared constructors for test fields and profiles, and reference loops
that tests compare the library against."""
from __future__ import annotations

import itertools
from dataclasses import replace
from math import gamma as _gamma

import numpy as np
import scipy.optimize

from stripes import kernel
from stripes.decomposition import default_delta_grad
from stripes.field import (PeriodicField, StripeSpec, gradient, l1_distance,
                           make_stripes)
from stripes.model import ModelParams, double_well, double_well_prime


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


def nonlocal_direct(values: np.ndarray, kgrid: np.ndarray, spacing: float
                    ) -> float:
    """Reference nonlocal pair sum by the all-lags loop: one roll and one
    sum of squared differences per lag (O(n^(2d)); small grids only).
    Same definition and normalisation as ``energy.nonlocal_energy`` with
    the kernel table ``kgrid`` and grid spacing ``spacing``."""
    d = values.ndim
    n = values.shape[0]
    total = 0.0
    for lag in itertools.product(range(n), repeat=d):
        shifted = values
        for ax, s in enumerate(lag):
            shifted = np.roll(shifted, -s, axis=ax)
        total += kgrid[lag] * np.sum((shifted - values) ** 2)
    return float(total * spacing ** (2 * d))


def cross_term_direct(u: PeriodicField, i: int, params: ModelParams
                      ) -> float:
    """Reference cross term by the all-lags loop: one roll and one sum of
    squared brackets per lag (O(n^(2d)); small grids only).  Same
    definition and normalisation as ``decomposition.cross_term``."""
    ax = i - 1
    n, d = u.n, u.dims
    vals = u.values
    axes = tuple(range(d))
    kgrid = kernel.periodized_kernel_grid(u.L, u.n, params)
    total = 0.0
    for lag in itertools.product(range(n), repeat=d):
        t1 = np.roll(vals, -lag[ax], axis=ax) - vals
        perp = [0 if a == ax else -z for a, z in enumerate(lag)]
        bracket = t1 - np.roll(t1, perp, axis=axes)
        total += kgrid[lag] * float(np.sum(bracket ** 2))
    return total * u.h_grid ** (2 * d) / (2.0 * d)


def exp_sum_full_grid(n: int, dim: int, pe: float, a: float, L: float
                      ) -> np.ndarray:
    """A d >= 2 exponential-sum table at ``kernel._nodes``' nodes, as
    ``kernel._exp_sum`` built it before it folded onto the lags 0..n // 2:
    one matrix product over all n^d lags, which rounds an entry and its
    mirror images differently at some sizes."""
    h, r_lo, r_hi = kernel._nodes(dim, pe, a, kernel._majorant(dim, pe, a, L))
    u = np.arange(r_lo, r_hi + 1) * h
    t = np.exp(u) / a
    w = h * np.exp(pe * u - np.exp(u) - pe * np.log(a) - kernel._lgamma(pe))
    y = np.exp(np.multiply.outer(-t, np.arange(n + 1) * (L / n)))
    E = (y[:, :n] + y[:, n:0:-1]) / -np.expm1(-t * L)[:, None]
    rows = E
    for _ in range(dim - 2):
        rows = (rows[:, :, None] * E[:, None, :]).reshape(t.size, -1)
    return ((E.T * w) @ rows).reshape((n,) * dim)


def symmetrized_reference(vals: np.ndarray) -> np.ndarray:
    """A periodized table averaged over the reflections j -> n - j of each
    axis and over all permutations of the axes, then read at the canonical
    lag of its orbit: the averaging pass that once made the tables of
    ``exp_sum_full_grid`` exactly symmetric, the oracle the tables built
    symmetric by construction agree with to a few ulps."""
    n = vals.shape[0]
    for ax in range(vals.ndim):
        flipped = np.roll(np.flip(vals, axis=ax), 1, axis=ax)  # i <-> n - i
        vals = 0.5 * (vals + flipped)
    perms = list(itertools.permutations(range(vals.ndim)))
    vals = sum(np.transpose(vals, perm) for perm in perms) / len(perms)
    idx = np.indices(vals.shape)
    np.minimum(idx, (n - idx) % n, out=idx)
    idx.sort(axis=0)
    return vals[tuple(idx)]


def line_weights_reference(op: kernel.PeriodicKernelOperator, axis: int
                           ) -> np.ndarray:
    """The Parseval weights of ``op.pair_sum(v, axis=axis)`` as that call
    built them for itself before the operator kept them: w_k (ksum -
    S(k_i, 0_perp)) / n, 0 at k_i = 0, shaped to broadcast along axis."""
    d = op.table.ndim
    n = op.table.shape[axis]
    line = op.spectrum[tuple(slice(None) if a == axis else 0
                             for a in range(d))][:n // 2 + 1]
    weights = half_weights_reference(n) / n * (op.ksum - line.real)
    weights[0] = 0.0
    shape = [1] * d
    shape[axis] = -1
    return weights.reshape(shape)


def half_weights_reference(n: int) -> np.ndarray:
    """Weights of the n // 2 + 1 rFFT frequencies k in a Parseval sum over
    all n: 1 at k = 0 and, for even n, at k = n / 2, which equal their own
    conjugates, and 2 elsewhere."""
    return np.array([1.0 if k == 0 or 2 * k == n else 2.0
                     for k in range(n // 2 + 1)])


def cross_multiplier_reference(op: kernel.PeriodicKernelOperator, axis: int
                               ) -> np.ndarray:
    """m_i(k) = S(0) + S(k) - S(k_i, 0_perp) - S(0_i, k_perp) clipped at 0,
    as ``decomposition.cross_term`` built it on every call before the
    operator kept it."""
    s = op.spectrum.real
    line = s[tuple(slice(None) if a == axis else slice(0, 1)
                   for a in range(s.ndim))]
    mult = (s - s.take([0], axis=axis)) + (s.flat[0] - line)
    np.maximum(mult, 0.0, out=mult)
    return mult


def lattice_marginal(kernel_grid: np.ndarray, axis: int, spacing: float
                     ) -> np.ndarray:
    """Marginalize a d-dim periodized kernel grid onto one lag axis by the
    lattice rectangle rule: the table of the slice nonlocal terms of
    ``decomposition`` as a 1D table of its own."""
    d = kernel_grid.ndim
    other = tuple(ax for ax in range(d) if ax != axis)
    return kernel_grid.sum(axis=other) * spacing ** (d - 1)


def slice_terms_direct(u: PeriodicField, params: ModelParams
                       ) -> tuple[list, list[float], list[float], float]:
    """Reference slice terms by the per-line loop: the np.roll gradient,
    line sums of the Mbar density over a boolean mask of the active set,
    and one ``pair_sum`` per 1D line against the lattice marginal of the
    periodized kernel grid.  Returns (rows, mbar, gbar, wcal): one row
    (i, slice_index, Mbar, Gbar) per direction i and slice line, the lines
    in row-major order over the perpendicular grid, and the whole-field
    Mbar^i, Gbar^i and Wcal of ``decomposition.lower_bound_report``."""
    d, n, h = u.dims, u.n, u.h_grid
    alpha = params.alpha
    diffs = [(np.roll(u.values, -1, axis=ax) - u.values) / h
             for ax in range(d)]
    gl1 = sum(np.abs(g) for g in diffs)
    active = gl1 > default_delta_grad(u)
    w = double_well(u.values)
    kgrid = kernel.periodized_kernel_grid(u.L, n, params)
    op = kernel.PeriodicKernelOperator(lattice_marginal(kgrid, 0, h))
    ctau = kernel.c_tau(params)
    rows, mbar, gbar = [], [], []
    for ax, g in enumerate(diffs):
        di = np.abs(g)
        ratio = np.zeros_like(gl1)
        ratio[active] = di[active] / gl1[active]
        dens = 3.0 * alpha * di * gl1 + (3.0 / alpha) * w * ratio
        nl_total = 0.0
        for k, idx in enumerate(np.ndindex((n,) * (d - 1))):
            line = idx[:ax] + (slice(None),) + idx[ax:]
            m = float(np.sum(dens[line][active[line]]) * h)
            nl = op.pair_sum(u.values[line]) * h ** 2
            nl_total += nl
            rows.append((ax + 1, k, m, m * ctau - nl))
        mbar.append(float(np.sum(dens[active]) * h ** d))
        gbar.append(mbar[-1] * ctau - nl_total * h ** (d - 1))
    wcal = float((3.0 / alpha) * np.sum(w[~active]) * h ** d)
    return rows, mbar, gbar, wcal


def marginal_tail_mass(R: float, params: ModelParams) -> float:
    """integral_{|z|>R} Khat(z) dz = 2 c (R+a)^(1-q) / (q-1)."""
    if params.q <= 1:
        raise kernel.DivergentMomentError("marginal tail mass requires q > 1")
    if R < 0:
        raise ValueError("R must be >= 0")
    a = params.kernel_scale
    c = kernel.marginal_constant(params.d, params.p)
    return 2.0 * c * (R + a) ** (1.0 - params.q) / (params.q - 1.0)


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


def table_bound(params: ModelParams, L: float, marginal: bool = False
                ) -> float:
    """0.9 eps f_max: the truncation bound the certificate of every
    periodized kernel table of ``params`` on the period L meets (of its
    1D marginal with ``marginal``), from ``kernel._majorant``'s bound
    f_max on every entry."""
    d, p, a = params.d, params.p, params.kernel_scale
    if marginal:
        f_max = kernel.marginal_constant(d, p) \
            * kernel._majorant(1, p - d + 1.0, a, L)[2]
    else:
        f_max = kernel._majorant(d, p, a, L)[2]
    return 0.9 * np.finfo(float).eps * f_max


def _upper_tail_scalar(X: float, log_c, s, a: float) -> float:
    return float(np.sum(np.exp(log_c - s * np.log(a) + (s - 1.0) * np.log(X)
                               - X) / (1.0 - (s - 1.0) / X)))


def exp_sum_nodes_loop(dim: int, pe: float, a: float, L: float
                       ) -> tuple[float, int, int]:
    """``kernel._nodes`` as one scalar upper-tail bound per candidate r_hi,
    with its own ``kernel._majorant`` call."""
    log_c, s, f_max = kernel._majorant(dim, pe, a, L)
    eps = np.finfo(float).eps
    with np.errstate(over="ignore"):
        h = float(np.max(2.0 * np.pi * kernel._THETAS / np.log1p(
            2.0 * np.exp(-pe * np.log(np.cos(kernel._THETAS)))
            / kernel._DISC_SHARE / eps)))
    budget = kernel._TAIL_SHARE * eps * f_max
    log_t = np.min((np.log(budget / (dim + 1) * s) - log_c) / s)
    r_lo = int(np.floor((log_t + np.log(a)) / h))
    r_hi = max(r_lo, int(np.ceil(np.log(pe) / h)))
    while _upper_tail_scalar(np.exp(r_hi * h), log_c, s, a) > budget:
        r_hi += 1
    return h, r_lo, r_hi


def exp_sum_bound_loop(dim: int, pe: float, a: float, L: float, h: float,
                       r_lo: int, r_hi: int) -> float:
    """``kernel._bound`` with its own ``kernel._majorant`` call and the
    scalar upper-tail bound."""
    log_c, s, f_max = kernel._majorant(dim, pe, a, L)
    with np.errstate(over="ignore"):
        disc = float(np.min(2.0 * np.exp(-pe * np.log(np.cos(kernel._THETAS)))
                            / np.expm1(2.0 * np.pi * kernel._THETAS / h)))
    lower = np.sum(np.exp(log_c + s * (r_lo * h - np.log(a))) / s)
    X = np.exp(r_hi * h)
    upper = _upper_tail_scalar(X, log_c, s, a) if X >= pe else np.inf
    return float(disc * f_max + lower + upper)


def _family_mass(dim: int, pe: float, a: float) -> float:
    return 2.0 ** dim * _gamma(pe - dim) / _gamma(pe) * a ** (dim - pe)


def _truncation_bound(m: int, dim: int, pe: float, a: float, L: float) -> float:
    """Certified bound on the far-field (shells > m) periodization error
    after the cell-integral correction.

    Smooth cells obey a midpoint (second-order) bound; the O(1)-per-shell
    cells straddling coordinate hyperplanes, where ||.||_1 has a kink, get a
    first-order oscillation bound.
    """
    j = np.arange(m + 1, m + 20001, dtype=float)
    dist = (j - 1.0) * L
    n_shell = (2 * j + 1) ** dim - (2 * j - 1) ** dim
    smooth = n_shell * pe * (pe + 1.0) * (dist + a) ** (-pe - 2.0) * dim * L * L / 8.0
    if dim == 1:
        kink = np.zeros_like(j)
    elif dim == 2:
        kink = 12.0 * pe * (dist + a) ** (-pe - 1.0) * L
    else:
        kink = 36.0 * (2 * j + 1) * pe * (dist + a) ** (-pe - 1.0) * (3.0 * L / 2.0)
    terms = smooth + kink
    s = float(np.sum(terms))
    # integral-comparison remainder beyond the summed range
    decay = pe + 1.0 - (dim - 1.0)
    s += float(terms[-1]) * (float(j[-1]) + 1.0) / max(decay - 1.0, 1.0)
    return s


def periodized_values_direct(points: np.ndarray, dim: int, pe: float,
                             a: float, L: float, tol: float
                             ) -> tuple[np.ndarray, int, float]:
    """Reference periodization by the per-point shell loop: sum
    f = (||.||_1 + a)^(-pe) over the (2m+1)^dim images of each point
    (shape (..., dim)), plus the far-field cell-integral correction from
    one recursive box integral per point (O(points (2m+1)^dim); small
    grids or few points only), with the smallest power of two m >= 2
    whose certified far-field bound is <= tol.  Returns (values,
    shells_used, certified_error).  The correction subtracts the box
    integral from the full mass of f, which loses about
    log10(mass / value) digits."""
    m = 2
    while _truncation_bound(m, dim, pe, a, L) > tol:
        m *= 2
        if m > 4096:
            raise RuntimeError(
                f"periodization tolerance {tol} unreachable (shells > 4096)")
    cert = _truncation_bound(m, dim, pe, a, L)

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
    total = _family_mass(dim, pe, a)
    flat = points.reshape(-1, dim)
    corr = np.empty(flat.shape[0])
    for i, x in enumerate(flat):
        lo = [float(xi) - M for xi in x]
        hi = [float(xi) + M for xi in x]
        corr[i] = (total - _box_int_direct(lo, hi, a, pe)) / L ** dim
    return direct + corr.reshape(direct.shape), m, cert


def total_energy_direct(u: PeriodicField, params: ModelParams
                        ) -> tuple[float, float, float]:
    """Reference (mm_term, nonlocal_term, total) by the field-object
    arithmetic ``energy.total_energy`` had before it moved onto raw arrays,
    in the same operation order, so the two agree bit for bit."""
    vol = u.h_grid ** u.dims
    grad_l1_sq = sum(np.abs(g) for g in gradient(u)) ** 2
    mm_sum = float(3.0 * params.alpha * np.sum(grad_l1_sq) * vol
                   + (3.0 / params.alpha) * np.sum(double_well(u.values))
                   * vol)
    op = kernel.kernel_operator(u.L, u.n, params)
    nl_sum = op.pair_sum(u.values) * u.h_grid ** (2 * u.dims)
    vol_inv = 1.0 / u.L ** u.dims
    mm = mm_sum * (kernel.c_tau(params) - 1.0) * vol_inv
    nl = nl_sum * vol_inv
    return mm, nl, mm - nl


def energy_gradient_direct(u: PeriodicField, params: ModelParams,
                           kappa: float) -> np.ndarray:
    """Reference gradient with the smoothed 1-norm by the arithmetic
    ``flow.energy_gradient`` had before it moved onto raw arrays, in the
    same operation order."""
    v = u.values
    d, L = u.dims, u.L
    dx = u.h_grid
    vol = dx ** d
    alpha = params.alpha
    pref = (kernel.c_tau(params) - 1.0) / L ** d
    diffs = [(np.roll(v, -1, axis=ax) - v) / dx for ax in range(d)]
    roots = [np.sqrt(t * t + kappa * kappa) for t in diffs]
    s = sum(roots)
    grad = pref * (3.0 / alpha) * double_well_prime(v) * vol
    for ax in range(d):
        flux = s * diffs[ax] / roots[ax]
        grad += pref * 6.0 * alpha * vol / dx * (np.roll(flux, 1, axis=ax)
                                                 - flux)
    op = kernel.kernel_operator(L, u.n, params)
    grad -= (4.0 * vol * vol / L ** d) * (op.ksum * v - op.conv(v))
    return grad


def stripe_search_direct(u: PeriodicField, h_grid, nu_grid
                         ) -> tuple[float, int, float, float]:
    """Reference stripe search by one ``make_stripes`` field and one
    ``l1_distance`` per (axis, h, nu): the best (distance / L^d, axis, h,
    nu), first of equals in axis-h-nu order, as in ``flow.stripe_metrics``."""
    best = (np.inf, 1, np.nan, np.nan)
    for ax in range(1, u.dims + 1):
        for h in h_grid:
            for nu in nu_grid:
                if not 0 <= nu < 2 * h:
                    continue
                s = make_stripes(StripeSpec(ax, float(h), float(nu)), u.L,
                                 u.n, u.dims)
                dist = l1_distance(u, s) / u.L ** u.dims
                if dist < best[0]:
                    best = (dist, ax, float(h), float(nu))
    return best


def profile_energy_direct(G: np.ndarray, gamma, params: ModelParams,
                          L: float) -> tuple[float, float, float]:
    """Reference (local, nonlocal, F1d) of n samples G of an L-periodic
    profile by the ``np.roll`` and ``double_well`` arithmetic
    ``onedim._ProfileObjective`` had before it evaluated W inline and took
    differences by slicing, in the same operation order, so the two agree
    bit for bit.  gamma is None, a scalar or n samples."""
    n = G.size
    dx = L / n
    c = kernel.c_tau(params)
    A = 3.0 * (c - 1.0) * params.alpha / L
    B = 3.0 * (c - 1.0) / (L * params.alpha)
    D = (np.roll(G, -1) - G) / dx
    grad2, well = D ** 2, double_well(G)
    if gamma is not None:
        grad2 = np.multiply(gamma, grad2, out=np.zeros(n), where=D != 0)
        well = well / gamma
    grad_int, well_int = float(np.sum(grad2) * dx), float(np.sum(well) * dx)
    op = kernel.marginal_operator(L, n, params)
    local = A * grad_int + B * well_int
    nonlocal_ = dx * dx * op.pair_sum(G) / L
    return local, nonlocal_, local - nonlocal_


def profile_coefficients_direct(params: ModelParams, L: float, n: int
                                ) -> tuple[float, float, np.ndarray,
                                           kernel.KernelCertificate]:
    """Reference (A, B, marginal table, its certificate) of the 1D
    objective on n samples of period L, as the objective and the marginal
    cache once derived them from the model each on its own: C_tau, alpha,
    c_{d,p} and a = tau^(1/(p - d - 1)) computed here, in that code's
    operation order."""
    c = kernel.c_tau(params)
    A = 3.0 * (c - 1.0) * params.alpha / L
    B = 3.0 * (c - 1.0) / (L * params.alpha)
    cm = kernel.marginal_constant(params.d, params.p)
    a = params.tau ** (1.0 / (params.p - params.d - 1))
    vals, cert = kernel._exp_sum_table(n, 1, params.p - params.d + 1, a, L)
    return A, B, cm * vals, replace(cert, bound=cm * cert.bound)


def profile_grad_direct(G: np.ndarray, gamma, params: ModelParams,
                        L: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference (gradient of F1d, interaction field) by the arithmetic of
    ``profile_energy_direct``, in the same operation order as
    ``onedim._ProfileObjective.grad`` and ``interaction``; like the energy,
    it zeroes gamma G' where G' = 0, also for gamma = +inf."""
    n = G.size
    dx = L / n
    c = kernel.c_tau(params)
    A = 3.0 * (c - 1.0) * params.alpha / L
    B = 3.0 * (c - 1.0) / (L * params.alpha)
    gam = 1.0 if gamma is None else gamma
    D = (np.roll(G, -1) - G) / dx
    # an infinite coefficient costs nothing where the slope is 0
    gD = gam * D if gamma is None else np.multiply(
        gamma, D, out=np.zeros(n), where=D != 0)
    op = kernel.marginal_operator(L, n, params)
    interaction = op.conv(G) - op.ksum * G
    grad = (A * 2.0 * (np.roll(gD, 1) - gD)
            + B * double_well_prime(G) / gam * dx)
    grad += (4.0 * dx * dx / L) * interaction
    return grad, interaction


def gamma_optimum_direct(a: float, b: float, m: float, w: float) -> float:
    """Reference argmin over gamma in [1, inf) of q(gamma) = a gamma
    + b / gamma + w (gamma - m)_+^2 (a, b >= 0; m >= 1; w > 0), one sample
    at a time.  q is convex, so its minimizer is where
    dq = a - b / gamma^2 + 2 w (gamma - m)_+ changes sign: sqrt(b/a)
    clamped to [1, m] where dq(m) >= 0, otherwise the root of dq on
    [m, inf) by ``scipy.optimize.brentq``, to 4 ulps of the root."""
    if a - b / m ** 2 >= 0:
        return min(max(np.sqrt(b / a), 1.0), m) if a > 0 else 1.0

    def dq(x):
        return a - b / x ** 2 + 2.0 * w * (x - m)

    hi = m + 1.0
    while dq(hi) < 0:
        hi *= 2.0
    return scipy.optimize.brentq(dq, m, hi, xtol=1e-300,
                                 rtol=4 * np.finfo(float).eps)


FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
             "irfftn", "fft2", "ifft2", "rfft2", "irfft2")


def count_ffts(monkeypatch) -> dict:
    """Count every ``numpy.fft`` transform from now on, by name, until the
    monkeypatch is undone; the returned dict fills as calls happen."""
    calls: dict = {}
    for name in FFT_NAMES:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
