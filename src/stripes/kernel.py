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
sum_r w_r (x)_i E_r.  Like the kernel, each table is exactly invariant
under the reflections and permutations of the coordinates as built, with
no averaging pass (``_exp_sum``: 1D folds j and n - j after its one
product, the faster order there, and d >= 2 folds each factor before its
product, which then fills the lags 0..n // 2 alone).  Its error has a
closed-form certificate, the trapezoid bound of Trefethen-Weideman (SIAM
Rev. 2014) plus the two cut tails, and one rule sets the step and node
range through it, with no tolerance to choose: the bound stays below
machine epsilon times f_max, a bound on every entry, so each table is
certified to the rounding level of its largest possible entry;
``KernelCertificate`` records them with the bound.  The bound covers the
truncation; the rounding of the positive sum adds up to about (nodes *
machine epsilon) relative.

Every nonlocal term is the pair form sum_x sum_z |v(x + z) - v(x)|^2 K(z)
against a periodized table; ``PeriodicKernelOperator`` evaluates it from
one rFFT (by Parseval) and convolves with the table by FFT, both also from
an rFFT the caller already holds, so that an objective needing the pair
form and the convolution of one array transforms it once.  One builder,
``_operator``, makes the operators of the periodized kernel and of its
marginal, which ``kernel_operator`` and ``marginal_operator`` cache.  The
pair form along the lines of one axis reads the same spectrum at zero
frequency on the other axes.  Every weight and multiplier that depends on
the table alone, the slicing report's cross multipliers included, is
computed once, when the operator is built.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class KernelMoments:
    mass: float
    c_tau: float
    half_mass_marginal: float
    marginal_constant: float


def moments(params: ModelParams) -> KernelMoments:
    return KernelMoments(
        mass=mass(params),
        c_tau=c_tau(params),
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
    Gamma(s, X) <= X^(s-1) e^(-X) / (1 - (s-1)/X) for s >= 1, X > s - 1;
    one bound per entry of an array X."""
    X = np.asarray(X, dtype=float)[..., None]
    return np.sum(np.exp(log_c - s * np.log(a) + (s - 1.0) * np.log(X)
                         - X) / (1.0 - (s - 1.0) / X), axis=-1)


def _bound(pe: float, a: float, majorant, h: float, r_lo: int, r_hi: int
           ) -> float:
    """Certified bound on the absolute error of every entry of
    ``_exp_sum(n, dim, pe, a, L, h, r_lo, r_hi)``, given ``_majorant(dim,
    pe, a, L)``: the trapezoid error plus the nodes dropped below r_lo and
    above r_hi."""
    log_c, s, f_max = majorant
    with np.errstate(over="ignore"):       # e^(2 pi theta / h) = inf: 0
        disc = float(np.min(2.0 * np.exp(-pe * np.log(np.cos(_THETAS)))
                            / np.expm1(2.0 * np.pi * _THETAS / h)))
    lower = np.sum(np.exp(log_c + s * (r_lo * h - np.log(a))) / s)
    X = np.exp(r_hi * h)
    upper = float(_upper_tail(X, log_c, s, a)) if X >= pe else np.inf
    return float(disc * f_max + lower + upper)


# candidate last nodes whose upper tails ``_nodes`` evaluates at once: the
# scan from X = pe takes 12-13 of them for every family member of this module
_TAIL_WINDOW = 16


def _nodes(dim: int, pe: float, a: float, majorant
           ) -> tuple[float, int, int]:
    """(h, r_lo, r_hi) whose ``_bound`` is below 0.9 eps f_max (eps the
    machine epsilon, f_max ``_majorant``'s bound on every entry): the
    largest step whose trapezoid bound at some theta meets _DISC_SHARE,
    the last node r_lo below which every lower-tail term meets its part
    of _TAIL_SHARE, and the first r_hi >= r_lo with X = e^(r_hi h) >= pe
    whose upper tail meets _TAIL_SHARE of eps f_max.  That bound decreases
    in X >= pe and reaches 0 in floating point, so the scan over windows
    of _TAIL_WINDOW candidates ends."""
    log_c, s, f_max = majorant
    eps = np.finfo(float).eps
    with np.errstate(over="ignore"):       # log1p(inf): no step at theta
        h = float(np.max(2.0 * np.pi * _THETAS / np.log1p(
            2.0 * np.exp(-pe * np.log(np.cos(_THETAS))) / _DISC_SHARE / eps)))
    budget = _TAIL_SHARE * eps * f_max
    log_t = np.min((np.log(budget / (dim + 1) * s) - log_c) / s)
    r_lo = int(np.floor((log_t + np.log(a)) / h))
    r_hi = max(r_lo, int(np.ceil(np.log(pe) / h)))
    while True:
        r = r_hi + np.arange(_TAIL_WINDOW)
        met = np.flatnonzero(_upper_tail(np.exp(r * h), log_c, s, a)
                             <= budget)
        if met.size:
            return h, r_lo, r_hi + int(met[0])
        r_hi += _TAIL_WINDOW


def _exp_sum(n: int, dim: int, pe: float, a: float, L: float, h: float,
             r_lo: int, r_hi: int) -> np.ndarray:
    """sum_r w_r (x)_i E_{t_r} over the nodes u_r = r h, r_lo <= r <= r_hi,
    at the lags j L / n, from one node-by-lag matrix y = e^(-t_r x_j),
    0 <= j <= n, exactly invariant under the reflections j -> n - j and
    the permutations of the axes.  In 1D f = (w / (1 - e^(-t L))) y folded
    after the product as f_j + f_{n-j} (one matrix in memory; folding y
    first was ~20 % slower at n = 2048).  In d >= 2 the E_{t_r} fold first,
    onto the lags j <= m = n // 2, and E^T diag(w) times their row-wise
    Kronecker powers fills the (m + 1)^d box alone, whose entries are read
    at sorted indices (the product rounds an entry and its transpose
    differently) and whose axes are mirrored j -> n - j onto n lags."""
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
    m = n // 2
    E = (y[:, :m + 1] + y[:, n:n - m - 1:-1]) / damp[:, None]
    rows = E
    for _ in range(dim - 2):
        rows = (rows[:, :, None] * E[:, None, :]).reshape(t.size, -1)
    box = ((E.T * w) @ rows).reshape((m + 1,) * dim)
    idx = np.indices(box.shape)
    idx.sort(axis=0)
    table = box[tuple(idx)]
    for ax in range(dim):          # lag j > m is lag n - j in 1..n - m - 1
        mirror = np.flip(table.take(range(1, n - m), axis=ax), axis=ax)
        table = np.concatenate((table, mirror), axis=ax)
    return table


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
    majorant = _majorant(dim, pe, a, L)
    h, r_lo, r_hi = _nodes(dim, pe, a, majorant)
    cert = KernelCertificate(step=h, nodes=r_hi - r_lo + 1,
                             log_t=(r_lo * h - _log(a), r_hi * h - _log(a)),
                             bound=_bound(pe, a, majorant, h, r_lo, r_hi))
    return _exp_sum(n, dim, pe, a, L, h, r_lo, r_hi), cert


def _rfft_weights(n: int) -> np.ndarray:
    """Weights of the n // 2 + 1 frequencies of an rFFT of length n in a
    Parseval sum over all n: 2 where the rFFT drops the conjugate
    frequency, else 1."""
    w = np.ones(n // 2 + 1)
    w[1:(n + 1) // 2] = 2.0
    return w


def spectral_power(f: np.ndarray) -> np.ndarray:
    """|f|^2 of a spectrum f, as f.real^2 + f.imag^2 in a new array."""
    power = f.real ** 2
    power += f.imag ** 2
    return power


def rfft_from_last_axis(f: np.ndarray) -> np.ndarray:
    """The rFFT over all axes (``PeriodicKernelOperator.rfft``) of the
    array whose rFFT along its last axis is f: the FFTs along the other
    axes, from the last but one to the first, the order in which numpy 2's
    ``numpy.fft.rfftn`` takes them after its own rFFT along the last axis,
    so the result is rfftn's bit for bit (numpy 1 took them from the first
    axis on, which rounds differently in d >= 3; the package requires
    numpy 2)."""
    for ax in range(f.ndim - 2, -1, -1):
        f = np.fft.fft(f, axis=ax)
    return f


def _line_weights(spectrum: np.ndarray, ksum: float, n: int, axis: int
                  ) -> np.ndarray:
    """Parseval weights of the pair form along the lines of ``axis`` of an
    n^d grid, against the table summed over the other axes, whose
    spectrum is S(k_i, 0_perp): w_k (ksum - S(k_i, 0_perp)) / n for the
    n // 2 + 1 frequencies of an rFFT along the axis, 0 at k_i = 0,
    shaped to broadcast along it."""
    d = spectrum.ndim
    line = spectrum[tuple(slice(None) if a == axis else 0
                          for a in range(d))][:n // 2 + 1]
    w = _rfft_weights(n) / n * (ksum - line.real)
    w[0] = 0.0
    return w.reshape([-1 if a == axis else 1 for a in range(d)])


def _cross_multiplier(s: np.ndarray, axis: int) -> np.ndarray:
    """m_i(k) = S(0) + S(k) - S(k_i, 0_perp) - S(0_i, k_perp) of the axis
    i = ``axis``, from the real part s of the spectrum S, clipped at 0
    since a negative value can only be rounding."""
    line = s[tuple(slice(None) if a == axis else slice(0, 1)
                   for a in range(s.ndim))]               # S(k_i, 0_perp)
    m = (s - s.take([0], axis=axis)) + (s.flat[0] - line)
    np.maximum(m, 0.0, out=m)
    return m


class PeriodicKernelOperator:
    """Circular convolution with a periodized kernel table over its nonzero
    lags, and the pair form sum_x sum_z |v(x + z) - v(x)|^2 K(z) it defines.

    Holds the read-only ``table`` of kernel values at the lattice lags, and
    the sum ``ksum`` and rFFT ``spectrum`` of the table without its zero
    lag, which adds nothing to the pair form nor to ``ksum * v - conv(v)``
    (the only way callers use ``conv``) and would cancel against itself,
    costing digits on coarse grids where K(0) dominates the table.  A
    d-dimensional table acts on arrays of its own shape, over all axes or,
    for the pair form, along the lines of one ``axis`` against the table
    summed over the other axes.  ``conv_rfft`` and ``pair_sum_rfft`` are
    ``conv`` and ``pair_sum`` of an array whose rFFT the caller holds, and
    ``pair_sum_power`` is ``pair_sum`` from that rFFT's
    ``spectral_power``, the one implementation of both.

    Everything that depends only on the table is computed when the
    operator is built and is read-only: the Parseval weights of the pair
    form over all axes and along the lines of each axis, the rFFT
    half-spectrum weights ``half_weights`` (2 where the rFFT drops the
    conjugate frequency, else 1) and, for d >= 2, the
    ``cross_multipliers`` m_i(k) = S(0) + S(k) - S(k_i, 0_perp)
    - S(0_i, k_perp) of each axis i, clipped at 0 (see
    ``decomposition.cross_term``).  The operator is cached and shared,
    also across threads, so it keeps no state of the arrays it acts on.
    ``kernel_operator`` and ``marginal_operator`` also keep the
    ``certificate`` of their table's build.
    """

    certificate: KernelCertificate | None = None

    def __init__(self, table: np.ndarray):
        self.table = np.array(table, dtype=float)
        self.table.setflags(write=False)
        off = self.table.copy()
        off[(0,) * off.ndim] = 0.0
        d, n = off.ndim, off.shape[-1]
        self.ksum = float(np.sum(off))
        self.spectrum = np.fft.rfftn(off)
        self.spectrum.setflags(write=False)
        self.half_weights = _rfft_weights(n)
        # Parseval: the pair form is 2/N sum_k w_k |V_k|^2 (ksum - spectrum_k)
        # over the rFFT V of v; the mean (k = 0) adds nothing: weight 0
        self._pair_weights = (self.half_weights / self.table.size
                              * (self.ksum - self.spectrum.real))
        self._pair_weights[(0,) * d] = 0.0
        self._line_weights = tuple(_line_weights(self.spectrum, self.ksum,
                                                 n, ax) for ax in range(d))
        self.cross_multipliers = tuple(
            _cross_multiplier(self.spectrum.real, ax)
            for ax in range(d)) if d > 1 else ()
        for w in (self.half_weights, self._pair_weights, *self._line_weights,
                  *self.cross_multipliers):
            w.setflags(write=False)

    def rfft(self, v: np.ndarray) -> np.ndarray:
        """The rFFT of v over all axes, for ``conv_rfft`` and
        ``pair_sum_rfft``; v must have the table's dimension.  A 1D array
        takes ``numpy.fft.rfft``: the same transform, bit for bit, without
        the per-call handling of axes that adds 2-4 us to each ``rfftn``
        call (n = 512...2048, one thread), a sizable share of a transform
        at the sizes of the profile descent."""
        if v.ndim != self.table.ndim:     # would broadcast silently
            raise ValueError(f"a {self.table.ndim}D kernel table acts on "
                             f"{self.table.ndim}D arrays, got {v.ndim}D")
        return np.fft.rfft(v) if v.ndim == 1 else np.fft.rfftn(v)

    def conv(self, v: np.ndarray) -> np.ndarray:
        """sum_{z != 0} K(z) v(x - z) over the nonzero lattice lags z."""
        return self.conv_rfft(self.rfft(v), v.shape)

    def conv_rfft(self, f: np.ndarray, shape: tuple) -> np.ndarray:
        """``conv`` of the array of ``shape`` whose ``rfft`` is f (in 1D by
        ``numpy.fft.irfft``, as in ``rfft``)."""
        if len(shape) == 1:
            return np.fft.irfft(f * self.spectrum, n=shape[0])
        return np.fft.irfftn(f * self.spectrum, s=shape,
                             axes=tuple(range(len(shape))))

    def pair_sum_power(self, power: np.ndarray, axis: int | None = None
                       ) -> float | np.ndarray:
        """``pair_sum`` of the array whose rFFT has the ``spectral_power``
        ``power``: over all axes when the rFFT is its ``rfft``, along the
        lines of ``axis`` when it is its rFFT along that axis.  power is
        overwritten with its weighted terms, so that the sum allocates no
        array; a caller that keeps power passes a copy."""
        if axis is None:
            power *= self._pair_weights
            return float(2.0 * power.sum())
        power *= self._line_weights[axis]
        return 2.0 * np.sum(power, axis=axis)

    def pair_sum_rfft(self, f: np.ndarray, axis: int | None = None
                      ) -> float | np.ndarray:
        """``pair_sum_power`` of the ``spectral_power`` of the rFFT f, which
        is only read."""
        return self.pair_sum_power(spectral_power(f), axis)

    def pair_sum(self, v: np.ndarray, axis: int | None = None
                 ) -> float | np.ndarray:
        """sum_x sum_z |v(x + z) - v(x)|^2 K(z) over the lattice points x
        and lags z, from one rFFT of v by Parseval.  Invariant under
        constant shifts of v.

        With ``axis`` given, the pair form along every grid line of v
        parallel to ``axis`` against the table summed over the other axes,
        from one rFFT along it: an array of the line sums, of v's shape
        without ``axis``; the summed table's spectrum is ``spectrum`` at
        zero frequency on the other axes, and its Parseval weights along
        each axis are kept with the operator."""
        if axis is None:
            return self.pair_sum_rfft(self.rfft(v))
        if v.ndim != self.table.ndim:
            raise ValueError(f"a {self.table.ndim}D kernel table acts on "
                             f"{self.table.ndim}D arrays, got {v.ndim}D")
        return self.pair_sum_rfft(np.fft.rfft(v, axis=axis), axis)


def _check_grid(L: float, n: int) -> None:
    """Reject a grid no table can be built on, naming the value."""
    if not (np.isfinite(L) and L > 0):
        raise ValueError(f"L must be finite and positive, got {L!r}")
    if not (np.isfinite(n) and n == int(n) and n >= 2):
        raise ValueError(f"n must be an integer >= 2, got {n!r}")


def _operator(L: float, n: int, dim: int, pe: float, a: float, scale: float
              ) -> PeriodicKernelOperator:
    """Operator of ``_exp_sum_table``'s table and bound times scale, in
    any dimension; the table is exactly symmetric as built."""
    vals, cert = _exp_sum_table(n, dim, pe, a, L)
    op = PeriodicKernelOperator(scale * vals)
    op.certificate = replace(cert, bound=scale * cert.bound)
    return op


_cached_marginal_operator = lru_cache(maxsize=128)(_operator)  # 1D: small
_cached_kernel_operator = lru_cache(maxsize=32)(_operator)


def marginal_operator(L: float, n: int, params: ModelParams
                      ) -> PeriodicKernelOperator:
    """Operator of the L-periodized marginal kernel sum_k Khat(z + kL) at
    z_j = j L / n, certified to the rounding level of its largest possible
    entry; cached per (L, n, q, a, c_{d,p})."""
    _check_grid(L, n)
    return _cached_marginal_operator(float(L), int(n), 1, float(params.q),
                                     params.kernel_scale,
                                     marginal_constant(params.d, params.p))


def periodized_marginal(L: float, n: int, params: ModelParams
                        ) -> np.ndarray:
    """The read-only table of ``marginal_operator``."""
    return marginal_operator(L, n, params).table


def kernel_operator(L: float, n: int, params: ModelParams
                    ) -> PeriodicKernelOperator:
    """Operator of the d-dimensional L-periodized kernel sum_k K(zeta + kL)
    at the lattice lags zeta = (j_1, ..., j_d) L / n, certified to the
    rounding level of its largest possible entry; cached per
    (L, n, d, p, a)."""
    _check_grid(L, n)
    return _cached_kernel_operator(float(L), int(n), int(params.d),
                                   float(params.p), params.kernel_scale, 1.0)


def periodized_kernel_grid(L: float, n: int, params: ModelParams
                           ) -> np.ndarray:
    """The read-only table of ``kernel_operator``."""
    return kernel_operator(L, n, params).table
