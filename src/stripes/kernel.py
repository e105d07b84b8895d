"""The interaction kernel, its 1D marginal, moments, and periodized grids.

The kernel family is K(zeta) = (||zeta||_1 + a)^(-p) with a = tau^(1/beta).
Integrating out all but the first coordinate gives the marginal
Khat(t) = c_{d,p} (|t| + a)^(-q), q = p - d + 1, with the closed-form
constant c_{d,p} = 2^(d-1) Gamma(q) / Gamma(p).

Closed forms are the production path; adaptive quadrature lives in the test
suite as an independent oracle.  Periodized grids (wrap onto the torus), in
any dimension, are exponential sums (Beylkin-Monzon, ACHA 2005): writing
(||x||_1 + a)^(-p) as a Laplace integral in t makes it a product of
e^(-t |x_i|), each of which periodizes in closed form, and the trapezoid
rule in log t turns the integral into a sum over nodes, so a table is
sum_r w_r (x)_i E_r.  Its error has a closed-form certificate, the
trapezoid bound of Trefethen-Weideman (SIAM Rev. 2014) plus the two cut
tails, and one rule sets the step and node range through it, with no
tolerance to choose: the bound stays below machine epsilon times f_max, a
bound on every entry, so each table is certified to the rounding level of
its largest possible entry; ``KernelCertificate`` records them with the
bound.  The bound covers the truncation; the rounding of the positive sum
adds up to about (nodes * machine epsilon) relative.

Every nonlocal term is the pair form sum_x sum_z |v(x + z) - v(x)|^2 K(z)
against a periodized table; ``PeriodicKernelOperator`` evaluates it from
one rFFT (by Parseval) and convolves with the table by FFT, both also from
an rFFT the caller already holds, so that an objective needing the pair
form and the convolution of one array transforms it once, and
``kernel_operator``/``marginal_operator`` cache the operators of the
periodized kernel and marginal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb
from math import gamma as _gamma
from math import lgamma as _lgamma
from math import log as _log

import numpy as np

from .model import ModelParams


class DivergentMomentError(ValueError):
    """The requested kernel moment does not exist for these exponents."""


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
# periodization: a certified exponential sum
# ---------------------------------------------------------------------------

# half-widths theta of the strips |Im u| < theta over which the trapezoid
# error bound is minimized
_THETAS = 0.5 * np.pi * np.arange(1, 64) / 64.0
# shares of the truncation budget eps * f_max spent on the trapezoid error
# and on each cut tail
_DISC_SHARE, _TAIL_SHARE = 0.5, 0.2


@dataclass(frozen=True)
class KernelCertificate:
    """How a periodized table was built: the trapezoid ``step`` in
    log t, the number of ``nodes``, the range ``log_t`` of their log t
    and the certified ``bound`` on the absolute error of every entry."""

    step: float
    nodes: int
    log_t: tuple[float, float]
    bound: float


def _majorant(dim: int, pe: float, a: float, L: float):
    """(log c_k - log Gamma(pe), s_k, f_max) with sum_k c_k t^(s_k) e^(-t a)
    >= t^pe e^(-t a) prod_i E_t(x_i), c_k = C(dim, k) (2/L)^k and
    s_k = pe - k, since E_t <= coth(t L / 2) <= 1 + 2/(t L); its integral
    f_max = sum_k c_k Gamma(s_k) a^(-s_k) / Gamma(pe) bounds every entry."""
    k = np.arange(dim + 1)
    c = np.array([comb(dim, int(i)) for i in k]) * (2.0 / L) ** k
    log_c, s = np.log(c) - _lgamma(pe), pe - k
    f_max = float(np.sum(np.exp(log_c + [_lgamma(si) for si in s]
                                - s * np.log(a))))
    return log_c, s, f_max


def _upper_tail(X, log_c, s, a: float):
    """Bound on the nodes above X = t a >= pe dropped from the sum:
    sum_k c_k a^(-s_k) Gamma(s_k, X) / Gamma(pe), with
    Gamma(s, X) <= X^(s-1) e^(-X) / (1 - (s-1)/X) for s >= 1, X > s - 1."""
    return float(np.sum(np.exp(log_c - s * np.log(a) + (s - 1.0) * np.log(X)
                               - X) / (1.0 - (s - 1.0) / X)))


def _bound(dim: int, pe: float, a: float, L: float, h: float, r_lo: int,
           r_hi: int) -> float:
    """Certified bound on the absolute error of every entry of
    ``_exp_sum(n, dim, pe, a, L, h, r_lo, r_hi)``: the trapezoid error plus
    the nodes dropped below r_lo and above r_hi."""
    log_c, s, f_max = _majorant(dim, pe, a, L)
    with np.errstate(over="ignore"):       # e^(2 pi theta / h) = inf: 0
        disc = float(np.min(2.0 * np.exp(-pe * np.log(np.cos(_THETAS)))
                            / np.expm1(2.0 * np.pi * _THETAS / h)))
    lower = np.sum(np.exp(log_c + s * (r_lo * h - np.log(a))) / s)
    X = np.exp(r_hi * h)
    upper = _upper_tail(X, log_c, s, a) if X >= pe else np.inf
    return float(disc * f_max + lower + upper)


def _nodes(dim: int, pe: float, a: float, L: float
           ) -> tuple[float, int, int]:
    """(h, r_lo, r_hi) whose ``_bound`` is below 0.9 eps f_max (eps the
    machine epsilon, f_max ``_majorant``'s bound on every entry): the
    largest step whose trapezoid bound at some theta meets _DISC_SHARE,
    the last node r_lo below which every lower-tail term meets its part
    of _TAIL_SHARE, and the first r_hi >= r_lo with X = e^(r_hi h) >= pe
    whose upper tail meets _TAIL_SHARE of eps f_max (that bound decreases
    in X >= pe and reaches 0 in floating point, so the scan ends)."""
    log_c, s, f_max = _majorant(dim, pe, a, L)
    eps = np.finfo(float).eps
    with np.errstate(over="ignore"):       # log1p(inf): no step at theta
        h = float(np.max(2.0 * np.pi * _THETAS / np.log1p(
            2.0 * np.exp(-pe * np.log(np.cos(_THETAS))) / _DISC_SHARE / eps)))
    budget = _TAIL_SHARE * eps * f_max
    log_t = np.min((np.log(budget / (dim + 1) * s) - log_c) / s)
    r_lo = int(np.floor((log_t + np.log(a)) / h))
    r_hi = max(r_lo, int(np.ceil(np.log(pe) / h)))
    while _upper_tail(np.exp(r_hi * h), log_c, s, a) > budget:
        r_hi += 1
    return h, r_lo, r_hi


def _exp_sum(n: int, dim: int, pe: float, a: float, L: float, h: float,
             r_lo: int, r_hi: int) -> np.ndarray:
    """sum_r w_r (x)_i E_{t_r} over the nodes u_r = r h, r_lo <= r <= r_hi,
    at the lags j L / n, from one node-by-lag matrix y = e^(-t_r x_j),
    0 <= j <= n: in 1D f = (w / (1 - e^(-t L))) y folded as f_j + f_{n-j}
    (one matrix in memory, exactly reflection-symmetric), else
    E^T diag(w) times the row-wise Kronecker powers of the E_{t_r}."""
    u = np.arange(r_lo, r_hi + 1) * h
    t = np.exp(u) / a
    w = h * np.exp(pe * u - np.exp(u) - pe * np.log(a) - _lgamma(pe))
    x = np.arange(n + 1) * (L / n)          # x_{n - j} = L - x_j
    y = np.multiply.outer(-t, x)
    np.exp(y, out=y)
    damp = -np.expm1(-t * L)                # 1 - e^(-t L)
    if dim == 1:
        f = (w / damp) @ y
        return f[:n] + f[n:0:-1]
    E = (y[:, :n] + y[:, n:0:-1]) / damp[:, None]
    rows = E
    for _ in range(dim - 2):
        rows = (rows[:, :, None] * E[:, None, :]).reshape(t.size, -1)
    return ((E.T * w) @ rows).reshape((n,) * dim)


def _exp_sum_table(n: int, dim: int, pe: float, a: float, L: float
                   ) -> tuple[np.ndarray, KernelCertificate]:
    """Periodized f = (||.||_1 + a)^(-pe) at the lags x = j L / n,
    0 <= j_i < n, as an exponential sum truncated by ``_nodes``; needs
    pe > dim + 1 (every family member of this module has it).

    f(x) = Gamma(pe)^-1 int t^(pe-1) e^(-t a) prod_i e^(-t |x_i|) dt, and
    each factor periodizes in closed form,
    sum_k e^(-t |x + k L|) = (e^(-t x) + e^(-t (L - x))) / (1 - e^(-t L))
    =: E_t(x) on [0, L].  The trapezoid rule in u = log(t a) with step h
    at the nodes u_r = r h (so anchored at log t = -log a) gives
    table = sum_r w_r (x)_i E_{t_r}, w_r = h t_r^pe e^(-t_r a) / Gamma(pe).

    Certificate: the integrand in u extends to the strip |Im u| < theta
    < pi/2, where |sum_k e^(-t |x + kL|)| <= sum_k e^(-Re t |x + kL|), so
    its integral along each line is at most sec(theta)^pe f_per(x) and
    the infinite trapezoid sum lies within f_per(x) min_theta
    2 sec(theta)^pe / (e^(2 pi theta / h) - 1) (Trefethen-Weideman, SIAM
    Rev. 2014, Thm 5.1).  The majorant sum_k c_k t^(pe-k) e^(-t a) /
    Gamma(pe) of the integrand (``_majorant``) integrates to a bound on
    f_per everywhere, and its integrals below the first and above the
    last node, where it increases and (from t a >= pe on) decreases in u,
    bound the dropped nodes.
    """
    h, r_lo, r_hi = _nodes(dim, pe, a, L)
    cert = KernelCertificate(step=h, nodes=r_hi - r_lo + 1,
                             log_t=(r_lo * h - _log(a), r_hi * h - _log(a)),
                             bound=_bound(dim, pe, a, L, h, r_lo, r_hi))
    return _exp_sum(n, dim, pe, a, L, h, r_lo, r_hi), cert


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
    1D table's pair form also runs along the lines of one ``axis`` of an
    array of any dimension.  ``conv_rfft`` and ``pair_sum_rfft`` are
    ``conv`` and the all-axes ``pair_sum`` of an array whose ``rfft`` the
    caller holds.  The operator is cached and shared, also across threads,
    so it keeps no state of the arrays it acts on.  ``kernel_operator``
    and ``marginal_operator`` also keep the ``certificate`` of their
    table's build.
    """

    certificate: KernelCertificate | None = None

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

    def rfft(self, v: np.ndarray) -> np.ndarray:
        """The rFFT of v over all axes, for ``conv_rfft`` and
        ``pair_sum_rfft``; v must have the table's dimension."""
        if v.ndim != self.table.ndim:     # would broadcast silently
            raise ValueError(f"a {self.table.ndim}D kernel table acts on "
                             f"{self.table.ndim}D arrays, got {v.ndim}D")
        return np.fft.rfftn(v)

    def conv(self, v: np.ndarray) -> np.ndarray:
        """sum_{z != 0} K(z) v(x - z) over the nonzero lattice lags z."""
        return self.conv_rfft(self.rfft(v), v.shape)

    def conv_rfft(self, f: np.ndarray, shape: tuple) -> np.ndarray:
        """``conv`` of the array of ``shape`` whose ``rfft`` is f."""
        return np.fft.irfftn(f * self.spectrum, s=shape,
                             axes=tuple(range(len(shape))))

    def pair_sum_rfft(self, f: np.ndarray) -> float:
        """``pair_sum`` over all axes of the array whose ``rfft`` is f."""
        return float(2.0 * np.sum((f.real ** 2 + f.imag ** 2)
                                  * self._pair_weights))

    def pair_sum(self, v: np.ndarray, axis: int | None = None
                 ) -> float | np.ndarray:
        """sum_x sum_z |v(x + z) - v(x)|^2 K(z) over the lattice points x
        and lags z, from one rFFT of v by Parseval.  Invariant under
        constant shifts of v.

        With ``axis`` given, a 1D table's pair form along every grid line
        of v parallel to ``axis``, from one rFFT along it: an array of the
        line sums, of v's shape without ``axis``."""
        if axis is None:
            return self.pair_sum_rfft(self.rfft(v))
        if self.table.ndim != 1:
            raise ValueError(f"a {self.table.ndim}D kernel table acts on "
                             "all axes, not along one")
        f = np.fft.rfft(v, axis=axis)
        shape = [1] * v.ndim
        shape[axis] = -1
        return 2.0 * np.sum((f.real ** 2 + f.imag ** 2)
                            * self._pair_weights.reshape(shape), axis=axis)


def _check_grid(L: float, n: int) -> None:
    """Reject a grid no table can be built on, naming the value."""
    if not (np.isfinite(L) and L > 0):
        raise ValueError(f"L must be finite and positive, got {L!r}")
    if not (np.isfinite(n) and n == int(n) and n >= 2):
        raise ValueError(f"n must be an integer >= 2, got {n!r}")


def _certified_operator(vals: np.ndarray, cert: KernelCertificate
                        ) -> PeriodicKernelOperator:
    # a 1D table is symmetric as built: entry j is f_j + f_{n-j}
    op = PeriodicKernelOperator(_symmetrized(vals) if vals.ndim > 1
                                else vals)
    op.certificate = cert
    return op


@lru_cache(maxsize=128)    # 1D tables are small
def _cached_marginal_operator(L: float, n: int, d: int, p: float,
                              tau: float) -> PeriodicKernelOperator:
    c = marginal_constant(d, p)
    a = tau ** (1.0 / (p - d - 1))
    vals, cert = _exp_sum_table(n, 1, p - d + 1, a, L)
    return _certified_operator(c * vals, replace(cert, bound=c * cert.bound))


def marginal_operator(L: float, n: int, params: ModelParams
                      ) -> PeriodicKernelOperator:
    """Operator of the L-periodized marginal kernel sum_k Khat(z + kL) at
    z_j = j L / n, certified to the rounding level of its largest possible
    entry; cached per (L, n, d, p, tau)."""
    _check_grid(L, n)
    return _cached_marginal_operator(float(L), int(n), int(params.d),
                                     float(params.p), float(params.tau))


def periodized_marginal(L: float, n: int, params: ModelParams
                        ) -> np.ndarray:
    """The read-only table of ``marginal_operator``."""
    return marginal_operator(L, n, params).table


@lru_cache(maxsize=32)
def _cached_kernel_operator(L: float, n: int, d: int, p: float, tau: float
                            ) -> PeriodicKernelOperator:
    a = tau ** (1.0 / (p - d - 1))
    return _certified_operator(*_exp_sum_table(n, d, p, a, L))


def kernel_operator(L: float, n: int, params: ModelParams
                    ) -> PeriodicKernelOperator:
    """Operator of the d-dimensional L-periodized kernel sum_k K(zeta + kL)
    at the lattice lags zeta = (j_1, ..., j_d) L / n, certified to the
    rounding level of its largest possible entry; cached per
    (L, n, d, p, tau)."""
    _check_grid(L, n)
    return _cached_kernel_operator(float(L), int(n), int(params.d),
                                   float(params.p), float(params.tau))


def periodized_kernel_grid(L: float, n: int, params: ModelParams
                           ) -> np.ndarray:
    """The read-only table of ``kernel_operator``."""
    return kernel_operator(L, n, params).table


def lattice_marginal(kernel_grid: np.ndarray, axis: int, spacing: float
                     ) -> np.ndarray:
    """Marginalize a d-dim periodized kernel grid onto one lag axis by the
    lattice rectangle rule (exact counterpart of the continuum marginal for
    lattice identities)."""
    d = kernel_grid.ndim
    other = tuple(ax for ax in range(d) if ax != axis)
    return kernel_grid.sum(axis=other) * spacing ** (d - 1)
