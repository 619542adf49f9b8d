"""Signal/sensor/channel data model and BLUE fusion distortion.

A network snapshot fixes, for each of K sensors, an observation SNR
``gamma`` (signal variance over observation-noise variance) and a channel
SNR ``s`` (channel power gain over channel noise variance, in 1/W).  Each
sensor amplifies-and-forwards its observation with a power budget
``alpha_prime`` (the amplifying factor scaled by the signal variance), and
the fusion center combines the received values with the best linear
unbiased estimator.  This module holds those types, whose per-sensor
quantities (gamma, s, alpha_prime) are read-only float arrays indexed by
sensor, plus the closed-form estimator variance and its explicit
matrix-form twin used as a test oracle.

All powers are in watts; dB conversions happen at the config boundary only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import AllPowerZero

#: Observation SNR of a sensor whose observation noise is exactly zero.
#: Stored as IEEE +inf so that 1/gamma terms vanish exactly.
NOISELESS = math.inf

#: The largest value whose reciprocal overflows (1 / (1 / max float) rounds to +inf).  A
#: snapshot's gammas, its nonzero channel SNRs and every positive parameter lie above it.
_MIN_GAMMA = float(1.0 / np.finfo(float).max)


def _check_positive(name: str, value: float, allow_inf: bool = False) -> float:
    """``value`` as a float, if it is above ``_MIN_GAMMA`` and finite (or +inf, with
    ``allow_inf``)."""
    value = float(value)
    if not (0 < value < math.inf or (allow_inf and value == math.inf)):
        finite = "" if allow_inf else " and finite"
        raise ValueError(f"{name} must be strictly positive{finite}, got {value}")
    if value <= _MIN_GAMMA:
        raise ValueError(f"{name} must be above {_MIN_GAMMA!r} (a finite 1/{name}), got {value}")
    return value


def _check_int(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int, if it is an integer (a numpy one too, but not 3.0) in [low, high)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low or (high is not None and value >= high):
        raise ValueError(f"{name} must be >= {low}" + ("" if high is None else f" and < {high}"))
    return value


@dataclass(frozen=True)
class SignalPrior:
    """Second-order prior of the observed signal: its variance, in signal power units."""

    variance_theta: float

    def __post_init__(self):
        object.__setattr__(
            self, "variance_theta", _check_positive("variance_theta", self.variance_theta)
        )


def _frozen_vector(values) -> np.ndarray:
    """A read-only 1-D float copy of ``values``."""
    array = np.array(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {array.shape}")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One realization of the network: a signal prior plus K sensors.

    ``gamma`` (observation SNR, dimensionless) and ``s`` (channel SNR, 1/W)
    are read-only float arrays of length K.  Every ``gamma`` is strictly
    positive, with a finite 1/gamma (above ``_MIN_GAMMA``); ``NOISELESS``
    (``math.inf``) marks a sensor with zero observation noise so that the
    1/gamma limit is exact.  Every ``s`` is finite and either zero (a
    channel in a deep fade contributes nothing) or above ``_MIN_GAMMA``.
    Sensor order is identity: ranking and allocation results always refer
    back to these indices.
    """

    prior: SignalPrior
    gamma: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        gamma, s = _frozen_vector(self.gamma), _frozen_vector(self.s)
        if gamma.size < 1:
            raise ValueError("a snapshot needs at least one sensor")
        if gamma.size != s.size:
            raise ValueError("gamma and s must have equal length")
        if not (gamma > _MIN_GAMMA).all():
            raise ValueError(
                f"gamma must be strictly positive, not NaN, with a finite 1/gamma "
                f"(above {_MIN_GAMMA!r}), got {gamma.tolist()}"
            )
        if not (np.isfinite(s) & ((s == 0) | (s > _MIN_GAMMA))).all():
            raise ValueError(f"s must be finite and 0 or above {_MIN_GAMMA!r}, got {s.tolist()}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "s", s)

    @classmethod
    def from_arrays(
        cls, sigma_theta_sq: float, gamma: Iterable[float], s: Iterable[float]
    ) -> "Snapshot":
        return cls(SignalPrior(sigma_theta_sq), list(gamma), list(s))

    @property
    def k(self) -> int:
        return self.gamma.size

    @cached_property
    def inv_gamma(self) -> np.ndarray:
        """1/gamma, a read-only array like gamma itself."""
        inv_gamma = 1.0 / self.gamma
        inv_gamma.flags.writeable = False
        return inv_gamma

    @cached_property
    def eta(self) -> np.ndarray:
        """Figure of merit s / (1 + 1/gamma), read-only; equals s itself for a noiseless sensor."""
        eta = self.s / (1.0 + self.inv_gamma)
        eta.flags.writeable = False
        return eta


@dataclass(frozen=True, eq=False)
class Allocation:
    """Per-sensor amplification budgets alpha'_k (power units), a read-only array, all >= 0."""

    alpha_prime: np.ndarray

    def __post_init__(self):
        values = _frozen_vector(self.alpha_prime)
        if not (np.isfinite(values) & (values >= 0)).all():
            raise ValueError("alpha_prime entries must be finite and >= 0")
        object.__setattr__(self, "alpha_prime", values)

    def __len__(self) -> int:
        return self.alpha_prime.size

    def transmit_powers(self, snapshot: Snapshot) -> np.ndarray:
        """Per-sensor transmit powers P_k = alpha'_k (1 + 1/gamma_k), watts."""
        _check_length(snapshot, self)
        return self.alpha_prime * (1.0 + snapshot.inv_gamma)

    def total_power(self, snapshot: Snapshot) -> float:
        return float(np.sum(self.transmit_powers(snapshot)))


def _check_length(snapshot: Snapshot, allocation: Allocation) -> None:
    if len(allocation) != snapshot.k:
        raise ValueError(
            f"allocation length {len(allocation)} does not match K={snapshot.k}"
        )


def transmit_power(alpha_prime: float, gamma: float) -> float:
    """Average transmit power alpha' (1 + 1/gamma) spent by one sensor."""
    if alpha_prime < 0:
        raise ValueError("alpha_prime must be >= 0")
    return alpha_prime * (1.0 + 1.0 / _check_positive("gamma", gamma, True))


def signal_contributions(snapshot: Snapshot, allocation: Allocation) -> np.ndarray:
    """Per-sensor terms r_k = alpha' s / (alpha' s / gamma + 1) of the fused SNR.

    Each r_k lives in [0, gamma_k); sensors with alpha'=0 or s=0 contribute 0.
    """
    _check_length(snapshot, allocation)
    x = allocation.alpha_prime * snapshot.s
    return x / (snapshot.inv_gamma * x + 1.0)


def blue_mse(snapshot: Snapshot, allocation: Allocation) -> float:
    """Variance of the BLUE fusion estimate, in the units of the signal variance.

    Raises AllPowerZero when every sensor contributes zero signal power, so
    callers (e.g. Monte Carlo loops) decide deliberately how to count the
    undefined/infinite-distortion case.
    """
    total = float(np.add.reduce(signal_contributions(snapshot, allocation)))
    if total == 0.0:
        raise AllPowerZero("no sensor carries signal power; distortion is unbounded")
    return snapshot.prior.variance_theta / total


def blue_mse_matrix_oracle(snapshot: Snapshot, allocation: Allocation) -> float:
    """BLUE variance computed from the explicit gain vector and noise matrix.

    Decomposes each composed channel SNR with a unit channel-noise
    convention (xi^2 = 1, hence g = s), assembles the received-signal gain
    vector h and the diagonal noise covariance R, and evaluates
    (h^T R^-1 h)^-1 through a dense linear solve.  Kept deliberately on a
    different numerical path from ``blue_mse``; used as a test oracle.
    """
    _check_length(snapshot, allocation)
    sigma_theta_sq = snapshot.prior.variance_theta
    amp = allocation.alpha_prime / sigma_theta_sq  # alpha_k
    g = snapshot.s  # channel power gain under xi^2 = 1
    obs_var = sigma_theta_sq * snapshot.inv_gamma  # sigma_k^2 (0 for noiseless)
    h = np.sqrt(amp * g)
    noise = np.diag(obs_var * amp * g + 1.0)
    quad = float(h @ np.linalg.solve(noise, h))
    if quad == 0.0:
        raise AllPowerZero("no sensor carries signal power; distortion is unbounded")
    return 1.0 / quad


def equal_allocation(snapshot: Snapshot, total_power: float) -> Allocation:
    """Split the budget so every sensor transmits exactly total_power / K watts."""
    if total_power < 0:
        raise ValueError("total_power must be >= 0")
    share = total_power / snapshot.k
    return Allocation(share / (1.0 + snapshot.inv_gamma))


def equal_power_mse(snapshot: Snapshot, total_power: float) -> float:
    """BLUE variance under the equal-power split, evaluated in closed form."""
    _check_positive("total_power", total_power)
    k = snapshot.k
    ps = total_power * snapshot.s
    total = float(np.sum(ps / (snapshot.inv_gamma * ps + k * (1.0 + snapshot.inv_gamma))))
    if total == 0.0:
        raise AllPowerZero("no sensor carries signal power; distortion is unbounded")
    return snapshot.prior.variance_theta / total


def distortion_floor(snapshot: Snapshot) -> float:
    """Infimum of achievable distortion: signal variance over the sum of usable gammas.

    Only sensors with a live channel (s > 0) can contribute; the floor is
    approached, never attained, as their budgets grow without bound.
    """
    usable = snapshot.s > 0
    total = float(np.add.reduce(snapshot.gamma[usable]))
    if total == 0.0:
        return math.inf
    return snapshot.prior.variance_theta / total
