"""The interaction kernel, its 1D marginal, moments, and periodized grids.

The kernel family is K(zeta) = (||zeta||_1 + a)^(-p) with a = tau^(1/beta).
Integrating out all but the first coordinate gives the marginal
Khat(t) = c_{d,p} (|t| + a)^(-q), q = p - d + 1, with the closed-form
constant c_{d,p} = 2^(d-1) Gamma(q) / Gamma(p).

Closed forms are the production path; adaptive quadrature lives in the test
suite as an independent oracle.  Periodized grids (wrap onto the torus) carry
a certified truncation: a direct sum over the images with |k_i| <= m plus a
cell-integral correction for the far field, with an analytic error bound
kept below the requested tolerance.  The direct sum is folded into 1D
tables, because on each axis an image lies j + kn or -j + kn cells away;
the far-field box around every lag reaches (m + 1/2) L > L on each side, so
it contains 0 and one array-valued box integral covers the whole grid.

Every nonlocal term is the pair form sum_x sum_z |v(x + z) - v(x)|^2 K(z)
against a periodized table; ``PeriodicKernelOperator`` evaluates it from
one rFFT (by Parseval) and convolves with the table by FFT, and
``kernel_operator``/``marginal_operator`` cache the operators of the
periodized kernel and marginal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gamma as _gamma

import numpy as np

from .model import ModelParams


class DivergentMomentError(ValueError):
    """The requested kernel moment does not exist for these exponents."""


class TruncationError(RuntimeError):
    """The certified truncation tolerance could not be reached."""


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def marginal_constant(d: int, p: float) -> float:
    """c_{d,p} = 2^(d-1) Gamma(p-d+1) / Gamma(p); equals 1 for d=1."""
    q = p - d + 1
    return 2.0 ** (d - 1) * _gamma(q) / _gamma(p)


def kernel_value(zeta, params: ModelParams):
    """K(zeta) = (||zeta||_1 + a)^(-p); zeta has shape (..., d) or scalar for d=1."""
    a = params.kernel_scale
    z = np.atleast_1d(np.asarray(zeta, dtype=float))
    if z.shape[-1] != params.d and params.d == 1:
        z = z[..., None]
    norm1 = np.sum(np.abs(z), axis=-1)
    out = (norm1 + a) ** (-params.p)
    return float(out) if out.ndim == 0 else out


def marginal_kernel(t, params: ModelParams):
    """Khat(t) = c_{d,p} (|t| + a)^(-q)."""
    a = params.kernel_scale
    c = marginal_constant(params.d, params.p)
    out = c * (np.abs(np.asarray(t, dtype=float)) + a) ** (-params.q)
    return float(out) if out.ndim == 0 else out


def mass(params: ModelParams) -> float:
    """Total kernel mass over R^d: 2^d Gamma(p-d)/Gamma(p) * a^(-(beta+1))."""
    if params.p <= params.d:
        raise DivergentMomentError("kernel mass requires p > d")
    a = params.kernel_scale
    return 2.0 ** params.d * _gamma(params.p - params.d) / _gamma(params.p) \
        * a ** (-(params.beta + 1.0))


def half_mass_marginal(params: ModelParams) -> float:
    """integral_0^inf Khat = c_{d,p} a^(-(beta+1)) / (beta+1)."""
    a = params.kernel_scale
    c = marginal_constant(params.d, params.p)
    return c * a ** (1.0 - params.q) / (params.q - 1.0)


def c_tau(params: ModelParams) -> float:
    """First absolute moment of the marginal: integral |rho| Khat(rho) d rho.

    Closed form 2 c_{d,p} / (beta (beta+1) tau); also equals the first
    moment integral |zeta_1| K(zeta) d zeta of the full kernel.
    """
    if params.q <= 2:
        raise DivergentMomentError("c_tau requires q > 2 (beta > 0)")
    return 2.0 * marginal_constant(params.d, params.p) \
        / (params.beta * (params.beta + 1.0)) / params.tau


def j_c(params: ModelParams) -> float:
    """Critical coupling: the first moment of the tau = 1 kernel."""
    if params.p <= params.d + 1:
        raise DivergentMomentError("j_c requires p > d + 1")
    return 2.0 * marginal_constant(params.d, params.p) \
        / (params.beta * (params.beta + 1.0))


def marginal_tail_mass(R: float, params: ModelParams) -> float:
    """integral_{|z|>R} Khat(z) dz = 2 c (R+a)^(1-q) / (q-1)."""
    if params.q <= 1:
        raise DivergentMomentError("marginal tail mass requires q > 1")
    if R < 0:
        raise ValueError("R must be >= 0")
    a = params.kernel_scale
    c = marginal_constant(params.d, params.p)
    return 2.0 * c * (R + a) ** (1.0 - params.q) / (params.q - 1.0)


def marginal_tail_first_moment(R: float, params: ModelParams) -> float:
    """integral_{|z|>R} |z| Khat(z) dz in closed form."""
    if params.q <= 2:
        raise DivergentMomentError("marginal tail first moment requires q > 2")
    if R < 0:
        raise ValueError("R must be >= 0")
    a = params.kernel_scale
    q = params.q
    c = marginal_constant(params.d, params.p)
    b = R + a
    return 2.0 * c * (b ** (2.0 - q) / (q - 2.0) - a * b ** (1.0 - q) / (q - 1.0))


@dataclass(frozen=True)
class KernelMoments:
    mass: float
    first_moment: float
    c_tau: float
    half_mass_marginal: float
    marginal_constant: float


def moments(params: ModelParams) -> KernelMoments:
    ct = c_tau(params)
    return KernelMoments(
        mass=mass(params),
        first_moment=ct,
        c_tau=ct,
        half_mass_marginal=half_mass_marginal(params),
        marginal_constant=marginal_constant(params.d, params.p),
    )


# ---------------------------------------------------------------------------
# periodization: folded lattice sums plus a far-field box integral
# ---------------------------------------------------------------------------

def _box_int(ends, a, pe: float):
    """integral of (sum |x_i| + a)^(-pe) over the box prod [-lo_i, hi_i].

    ``ends`` holds one pair (lo_i, hi_i) of nonnegative extents per axis, so
    the box contains 0; extents and ``a`` may be broadcasting arrays.
    Integrating x_1 over [-lo_1, 0] and [0, hi_1] leaves members of the same
    family with exponent pe-1 and offsets a, a + lo_1, a + hi_1, so the
    recursion over axes bottoms out in 3^d pure powers.
    """
    if not ends:
        return a ** (-pe)
    (lo, hi), rest = ends[0], ends[1:]
    return (2.0 * _box_int(rest, a, pe - 1.0) - _box_int(rest, a + lo, pe - 1.0)
            - _box_int(rest, a + hi, pe - 1.0)) / (pe - 1.0)


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


def _shells_needed(dim: int, pe: float, a: float, L: float, tol: float) -> int:
    """Smallest power of two m >= 2 whose truncation bound is <= tol."""
    m = 2
    while _truncation_bound(m, dim, pe, a, L) > tol:
        m *= 2
        if m > 4096:
            raise TruncationError(
                f"periodization tolerance {tol} unreachable (shells > 4096)")
    return m


def _periodized_lattice(n: int, dim: int, pe: float, a: float, L: float,
                        tol: float, shells: int | None = None
                        ) -> tuple[np.ndarray, int, float]:
    """Periodized f = (||.||_1 + a)^(-pe) at the lags x = j L / n,
    0 <= j_i < n: the direct sum over the images x + kL with |k_i| <= m,
    plus a cell-integral correction for the far field.

    Returns (values of shape (n,) * dim, shells_used m, certified_error).

    The direct sum is folded into 1D tables.  In units of the cell h = L/n,
    the image distances on axis i are j_i + kn (k = 0..m) and -j_i + kn
    (k = 1..m).  For a sign pattern sigma in {+1, -1}^dim the terms with sign
    sigma_i on every axis i depend on j only through t = sigma . j and on
    k only through K = sum k_i, so they sum to
    T_s(t) = sum_K c_s(K) ((t + K n) h + a)^(-pe), read at t = sigma . j,
    where c_s (the np.convolve of the per-axis 0/1 ranges of k) depends only
    on the number s of minus signs.  That is O(n^dim + 2^dim dim m n) work
    in place of O(n^dim (2m+1)^dim).

    The far field is (mass of f - integral of f over the box
    x +- (m + 1/2) L) / L^dim.  Since 0 <= x_i < L < (m + 1/2) L, every box
    contains 0 on every axis, so one array-valued ``_box_int`` serves all
    lags.
    """
    if dim not in (1, 2, 3):
        raise ValueError("only dim <= 3 supported")
    m = _shells_needed(dim, pe, a, L, tol) if shells is None else int(shells)
    if m < 1:
        raise ValueError(f"shells must be >= 1, got {shells}")
    cert = _truncation_bound(m, dim, pe, a, L)

    h = L / n
    j = [np.arange(n).reshape([n if ax == i else 1 for ax in range(dim)])
         for i in range(dim)]
    plus, minus = np.ones(m + 1), np.r_[0.0, np.ones(m)]   # indexed by k
    tables = []
    for s in range(dim + 1):
        counts = reduce(np.convolve, [minus] * s + [plus] * (dim - s))
        K = np.flatnonzero(counts)
        t = np.arange(-s * (n - 1), (dim - s) * (n - 1) + 1)
        terms = ((t[:, None] + K * n) * h + a) ** (-pe)
        tables.append((np.sum(terms * counts[K], axis=1), s * (n - 1)))
    direct = np.zeros((n,) * dim)
    for signs in itertools.product((1, -1), repeat=dim):
        table, offset = tables[signs.count(-1)]
        direct += table[offset + sum(sg * ji for sg, ji in zip(signs, j))]

    M = (m + 0.5) * L
    box = _box_int([(M - ji * h, M + ji * h) for ji in j], a, pe)
    return direct + (_family_mass(dim, pe, a) - box) / L ** dim, m, cert


def _symmetrized(vals: np.ndarray) -> np.ndarray:
    """Average a periodized table over the reflections j -> n - j of each
    axis and over all permutations of the axes, then read every entry at
    the canonical lag of its orbit (each index folded to min(j, n - j), the
    indices sorted), so that the table is exactly invariant under both
    symmetries and not only up to the rounding of the averages."""
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


class PeriodicKernelOperator:
    """Circular convolution with a periodized kernel table over its nonzero
    lags, and the pair form sum_x sum_z |v(x + z) - v(x)|^2 K(z) it defines.

    Holds the read-only ``table`` of kernel values at the lattice lags, and
    the sum ``ksum`` and rFFT ``spectrum`` of the table without its zero
    lag, which adds nothing to the pair form nor to ``ksum * v - conv(v)``
    (the only way callers use ``conv``) and would cancel against itself,
    costing digits on coarse grids where K(0) dominates the table.  A
    d-dimensional table acts on arrays of its own shape over all axes; a
    1D table also acts along one ``axis`` of an array of any dimension.
    """

    def __init__(self, table: np.ndarray):
        self.table = np.array(table, dtype=float)
        self.table.setflags(write=False)
        off = self.table.copy()
        off[(0,) * off.ndim] = 0.0
        self.ksum = float(np.sum(off))
        self.spectrum = np.fft.rfftn(off)
        self.spectrum.setflags(write=False)
        # Parseval: the pair form is 2/N sum_k w_k |V_k|^2 (ksum - spectrum_k)
        # over the rFFT V of v, w_k = 2 where an rFFT drops the conjugate
        # frequency; the mean (k = 0) adds nothing, so its weight is 0
        n = self.table.shape[-1]
        w = np.ones(self.spectrum.shape[-1])
        w[1:(n + 1) // 2] = 2.0
        self._pair_weights = (w / self.table.size
                              * (self.ksum - self.spectrum.real))
        self._pair_weights[(0,) * off.ndim] = 0.0
        self._pair_weights.setflags(write=False)

    def _rfft(self, v: np.ndarray, axis: int | None
              ) -> tuple[np.ndarray, list[int]]:
        """rFFT of v over all axes (along ``axis`` only, when given), and
        the shape that broadcasts the table's spectrum against it."""
        if axis is None:
            if v.ndim != self.table.ndim:     # would broadcast silently
                raise ValueError(f"a {self.table.ndim}D kernel table needs "
                                 f"axis= on a {v.ndim}D array")
            return np.fft.rfftn(v), list(self.spectrum.shape)
        if self.table.ndim != 1:
            raise ValueError(f"a {self.table.ndim}D kernel table acts on "
                             "all axes, not along one")
        shape = [1] * v.ndim
        shape[axis] = -1
        return np.fft.rfft(v, axis=axis), shape

    def conv(self, v: np.ndarray, axis: int | None = None) -> np.ndarray:
        """sum_{z != 0} K(z) v(x - z) over the nonzero lattice lags z (along
        ``axis`` only, when given)."""
        f, shape = self._rfft(v, axis)
        f = f * self.spectrum.reshape(shape)
        if axis is None:
            return np.fft.irfftn(f, s=v.shape, axes=tuple(range(v.ndim)))
        return np.fft.irfft(f, n=v.shape[axis], axis=axis)

    def pair_sum(self, v: np.ndarray, axis: int | None = None) -> float:
        """sum_x sum_z |v(x + z) - v(x)|^2 K(z) over the lattice points x
        and lags z (along ``axis`` only, when given), from one rFFT of v by
        Parseval.  Invariant under constant shifts of v."""
        f, shape = self._rfft(v, axis)
        return float(2.0 * np.sum((f.real ** 2 + f.imag ** 2)
                                  * self._pair_weights.reshape(shape)))


def _check_grid(n: int, tol: float) -> None:
    if n < 2:
        raise ValueError("n must be >= 2")
    if tol <= 0:
        raise ValueError("tol must be positive")


@lru_cache(maxsize=128)    # 1D tables are small
def _cached_marginal_operator(L: float, n: int, d: int, p: float,
                              tau: float, tol: float, shells: int | None
                              ) -> PeriodicKernelOperator:
    c = marginal_constant(d, p)
    a = tau ** (1.0 / (p - d - 1))
    vals, _, _ = _periodized_lattice(n, 1, p - d + 1, a, L, tol / c,
                                     shells=shells)
    return PeriodicKernelOperator(_symmetrized(c * vals))


def marginal_operator(L: float, n: int, params: ModelParams,
                      tol: float = 1e-9, shells: int | None = None
                      ) -> PeriodicKernelOperator:
    """Operator of the L-periodized marginal kernel sum_k Khat(z + kL) at
    z_j = j L / n, certified to absolute truncation error < tol; cached
    per (L, n, d, p, tau, tol, shells)."""
    _check_grid(n, tol)
    return _cached_marginal_operator(float(L), int(n), int(params.d),
                                     float(params.p), float(params.tau),
                                     float(tol), shells)


def periodized_marginal(L: float, n: int, params: ModelParams,
                        tol: float = 1e-9, shells: int | None = None
                        ) -> np.ndarray:
    """The read-only table of ``marginal_operator``."""
    return marginal_operator(L, n, params, tol=tol, shells=shells).table


def kernel_shells_needed(L: float, params: ModelParams, tol: float) -> int:
    return _shells_needed(params.d, params.p, params.kernel_scale, L, tol)


@lru_cache(maxsize=32)
def _cached_kernel_operator(L: float, n: int, d: int, p: float, tau: float,
                            tol: float, shells: int | None
                            ) -> PeriodicKernelOperator:
    a = tau ** (1.0 / (p - d - 1))
    vals, _, _ = _periodized_lattice(n, d, p, a, L, tol, shells=shells)
    return PeriodicKernelOperator(_symmetrized(vals))


def kernel_operator(L: float, n: int, params: ModelParams,
                    tol: float = 1e-7, shells: int | None = None
                    ) -> PeriodicKernelOperator:
    """Operator of the d-dimensional L-periodized kernel sum_k K(zeta + kL)
    at the lattice lags zeta = (j_1, ..., j_d) L / n, certified truncation
    < tol; cached per (L, n, d, p, tau, tol, shells)."""
    _check_grid(n, tol)
    return _cached_kernel_operator(float(L), int(n), int(params.d),
                                   float(params.p), float(params.tau),
                                   float(tol), shells)


def periodized_kernel_grid(L: float, n: int, params: ModelParams,
                           tol: float = 1e-7, shells: int | None = None
                           ) -> np.ndarray:
    """The read-only table of ``kernel_operator``."""
    return kernel_operator(L, n, params, tol=tol, shells=shells).table


def lattice_marginal(kernel_grid: np.ndarray, axis: int, spacing: float
                     ) -> np.ndarray:
    """Marginalize a d-dim periodized kernel grid onto one lag axis by the
    lattice rectangle rule (exact counterpart of the continuum marginal for
    lattice identities)."""
    d = kernel_grid.ndim
    other = tuple(ax for ax in range(d) if ax != axis)
    return kernel_grid.sum(axis=other) * spacing ** (d - 1)
