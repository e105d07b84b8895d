"""Model parameters, the double-well potential, and the optimal transition
function omega.

The parameter set is (d, p, tau, eps, L) with derived exponents
beta = p - d - 1, q = p - d + 1 and the transition scale
alpha = eps * tau^(1/beta).  ``_well`` and ``_well_prime`` are the one W
and W'; ``double_well`` and ``double_well_prime`` clamp their input first.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

#: values this close to [0,1] are silently clamped; larger violations raise
CLAMP_TOL = 1e-12
# the opt-in flags of ModelParams, off by default
_FLAGS = ("allow_small_p", "allow_large_tau")


class DomainError(ValueError):
    """A quantity left its admissible domain by more than the clamp tolerance."""


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter bundle for the energy functional.

    ``allow_small_p`` lifts the default requirement p >= d + 2 (the proven
    regime); p > d + 1 is always required so that the first kernel moment
    exists.  ``allow_large_tau`` lifts the default tau <= 1.
    """

    d: int
    p: float
    tau: float
    eps: float
    L: float
    allow_small_p: bool = False
    allow_large_tau: bool = False

    def __post_init__(self) -> None:
        # every check is written so that NaN fails it
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise ValueError(f"dimension d must be an integer >= 1, got {self.d!r}")
        for name in ("p", "tau", "eps", "L"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not self.p > self.d + 1:
            raise ValueError(
                f"p must exceed d+1 = {self.d + 1} for the first kernel moment "
                f"to exist, got p={self.p}"
            )
        if self.p < self.d + 2 and not self.allow_small_p:
            raise ValueError(
                f"p={self.p} is below d+2={self.d + 2}; pass allow_small_p=True "
                "to leave the default regime"
            )
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.tau > 1 and not self.allow_large_tau:
            raise ValueError(
                f"tau={self.tau} > 1; pass allow_large_tau=True to override"
            )
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")

    @property
    def beta(self) -> float:
        return self.p - self.d - 1

    @property
    def q(self) -> float:
        return self.p - self.d + 1

    @property
    def alpha(self) -> float:
        """Transition scale eps * tau^(1/beta)."""
        return self.eps * self.tau ** (1.0 / self.beta)

    @property
    def kernel_scale(self) -> float:
        """Regularization offset tau^(1/beta) inside the kernel."""
        return self.tau ** (1.0 / self.beta)

    def with_(self, **changes: Any) -> "ModelParams":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """The parameters, and each opt-in flag only when it is set."""
        return {"d": int(self.d), "p": self.p, "tau": self.tau,
                "eps": self.eps, "L": self.L,
                **{flag: True for flag in _FLAGS if getattr(self, flag)}}

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelParams":
        return cls(d=int(obj["d"]), p=float(obj["p"]), tau=float(obj["tau"]),
                   eps=float(obj["eps"]), L=float(obj["L"]),
                   **{flag: bool(obj[flag]) for flag in _FLAGS if flag in obj})


def clamp01(t):
    """Clamp values to [0,1]; violations beyond ``CLAMP_TOL``, and NaN, are
    hard errors."""
    arr = np.asarray(t, dtype=float)
    outside = ~((arr >= -CLAMP_TOL) & (arr <= 1.0 + CLAMP_TOL))  # NaN too
    if np.any(outside):
        bad = float(arr[outside].flat[0])
        raise DomainError(
            f"value {bad} outside [0,1] beyond tolerance {CLAMP_TOL}")
    out = np.clip(arr, 0.0, 1.0)
    return out if out.ndim else float(out)


def _well(v):
    """W(v) = v v (1 - v) (1 - v), unchecked, built in place in that order
    in a new array (a float for a float v)."""
    w = 1.0 - v
    well = v * v
    well *= w
    well *= w
    return well


def _well_prime(v):
    """W'(v) = 2 v (1 - v) (1 - 2 v), unchecked."""
    return 2.0 * v * (1.0 - v) * (1.0 - 2.0 * v)


def double_well(t):
    """W(t) = t^2 (1-t)^2, the double-well potential with wells at 0 and 1."""
    return _well(clamp01(t))


def double_well_prime(t):
    """W'(t) = 2t(1-t)(1-2t)."""
    return _well_prime(clamp01(t))


def transition_energy(t):
    """omega(t) = 3t^2 - 2t^3 = integral_0^t 6 sqrt(W).

    The minimal cost of a monotone transition from 0 to t, normalized so
    omega(1) = 1.
    """
    t = clamp01(t)
    return 3.0 * t * t - 2.0 * t ** 3


def omega_gap_ratio(a: float, b: float) -> float:
    """|omega(a)-omega(b)| / |a-b|^2, always >= 1 on [0,1].

    Equals 6*min*(1 - min - t)/t + 3 - 2t with t = |a-b|; the minimum value 1
    is attained exactly at {a,b} = {0,1}.
    """
    a = float(clamp01(a))
    b = float(clamp01(b))
    diff2 = (a - b) ** 2
    if diff2 == 0.0:
        # includes points so close the squared gap underflows to zero
        raise DomainError("omega_gap_ratio undefined for a == b")
    return abs(transition_energy(a) - transition_energy(b)) / diff2
