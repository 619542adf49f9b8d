"""Random snapshot generation: propagation, fading and observation models.

Channel SNRs follow s = G0 * |r|^2 / (xi^2 * d^nu) with Rayleigh-amplitude
fading of unit mean power, so |r|^2 is exponential and is drawn directly as
-log(1 - U) rather than squaring an amplitude.  Observation noise variances
are either fixed or drawn i.i.d. per sensor.

Randomness is counter-based: trial t of a run seeded with ``seed`` owns a
fixed window of the Philox counter sequence, so sampling is a pure function
of (config, K, seed, trial) and batches reproduce bit-identically no matter
how trials are chunked across workers.

``sample_batch`` returns column-major chunks below ``_COLUMN_MAJOR_BELOW_K``
sensors.  There every sum over sensors in the batch kernels runs down
contiguous columns, with the same additions in the same order as along a
row.  From 8 sensors on, numpy sums a contiguous row pairwise, so the
column order would change the last bits; and from about 20 sensors on, the
row sorts and gathers of the ranking kernels cost more column-major than
the column sums save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import _MIN_GAMMA, SignalPrior, Snapshot, _check_int, _check_positive

_DOUBLES_PER_BLOCK = 4  # one Philox counter increment yields 4 uint64 = 4 doubles
_MAX_SEED = 2**64
#: Chunks of fewer sensors are sampled column-major; see sample_batch.
_COLUMN_MAJOR_BELOW_K = 8


@dataclass(frozen=True)
class RngStream:
    """Addresses one trial's private slice of the random sequence."""

    seed: int
    trial: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0, _MAX_SEED))
        object.__setattr__(self, "trial", _check_int("trial", self.trial, 0))


def _uniform_block(
    seed: int, start_trial: int, n_trials: int, draws_per_trial: int
) -> np.ndarray:
    """Uniform[0,1) draws, shape (n_trials, draws_per_trial), trial-addressable.

    Each trial consumes a whole number of Philox counter blocks, so any
    contiguous range of trials can be generated independently of how the
    full run is split.
    """
    if draws_per_trial == 0:
        return np.empty((n_trials, 0))
    blocks = -(-draws_per_trial // _DOUBLES_PER_BLOCK)
    bits = np.random.Philox(key=seed)
    bits.advance(start_trial * blocks)
    u = np.random.Generator(bits).random(n_trials * blocks * _DOUBLES_PER_BLOCK)
    return u.reshape(n_trials, blocks * _DOUBLES_PER_BLOCK)[:, :draws_per_trial]


def _per_sensor(name: str, values) -> float | tuple[float, ...]:
    """A per-sensor parameter: one positive value for all sensors, or one per sensor."""
    if np.ndim(values) == 0:
        return _check_positive(name, values)
    return tuple(_check_positive(name, v) for v in values)


def _for_k(name: str, values: float | tuple[float, ...], k: int) -> np.ndarray:
    """A ``_per_sensor`` value as K floats."""
    if isinstance(values, float):
        return np.full(k, values)
    if len(values) != k:
        raise ValueError(f"{name} has {len(values)} entries but K={k}")
    return np.array(values)


@dataclass(frozen=True)
class PropagationModel:
    """Deterministic part of the channel SNR: s = nominal_gain / (noise * d^nu).

    ``nominal_gain`` is the linear power gain at 1 m, ``distance_m`` is a
    scalar or per-sensor tuple in meters, ``channel_noise_variance`` is in
    watts.  The path-loss exponent defaults to 2 (free space); other values
    are supported for sensitivity studies.
    """

    nominal_gain: float = 1e-3
    distance_m: float | tuple[float, ...] = 100.0
    channel_noise_variance: float = 1e-12
    path_loss_exponent: float = 2.0

    def __post_init__(self):
        _check_positive("nominal_gain", self.nominal_gain)
        _check_positive("channel_noise_variance", self.channel_noise_variance)
        if not math.isfinite(self.path_loss_exponent):
            raise ValueError(f"path_loss_exponent must be finite, got {self.path_loss_exponent}")
        object.__setattr__(self, "distance_m", _per_sensor("distance_m", self.distance_m))

    def mean_channel_snr(self, k: int) -> np.ndarray:
        """Per-sensor mean channel SNR (value at |r|^2 = 1), shape (k,)."""
        d = _for_k("distance_m", self.distance_m, k)
        return self.nominal_gain / (self.channel_noise_variance * d**self.path_loss_exponent)


@dataclass(frozen=True)
class FadingModel:
    """Multiplicative fading of the channel power gain.

    ``rayleigh``: Rayleigh amplitude, so the power |r|^2 is exponential with
    mean ``mean_square``.  ``none``: |r|^2 fixed at ``mean_square``.
    """

    kind: str = "rayleigh"
    mean_square: float = 1.0

    def __post_init__(self):
        if self.kind not in ("rayleigh", "none"):
            raise ValueError("fading kind must be 'rayleigh' or 'none'")
        _check_positive("mean_square", self.mean_square)

    @property
    def draws_per_sensor(self) -> int:
        return 1 if self.kind == "rayleigh" else 0

    def power_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Map uniform draws to fading power samples; u=0 is a total fade."""
        if self.kind == "none":
            return np.full_like(u, self.mean_square)
        return -np.log1p(-u) * self.mean_square


@dataclass(frozen=True)
class ObservationModel:
    """Observation noise variances: fixed per sensor or i.i.d. random.

    ``fixed``: sigma_sq is a scalar or per-sensor tuple.
    ``uniform``: sigma_sq ~ U[low, high], 0 < low <= high.
    ``lognormal``: sigma_sq = median * exp(log_sigma * Z), Z standard normal.
    Random kinds consume one uniform draw per sensor via the inverse CDF, so
    the per-trial draw count stays fixed.
    """

    kind: str = "fixed"
    sigma_sq: float | tuple[float, ...] = 0.01
    low: float = 0.0
    high: float = 0.0
    median: float = 0.0
    log_sigma: float = 0.0

    def __post_init__(self):
        if self.kind == "fixed":
            object.__setattr__(self, "sigma_sq", _per_sensor("sigma_sq", self.sigma_sq))
        elif self.kind == "uniform":
            if not _check_positive("low", self.low) <= _check_positive("high", self.high):
                raise ValueError("uniform observation model needs low <= high")
        elif self.kind == "lognormal":
            _check_positive("median", self.median)
            if not 0 <= self.log_sigma < math.inf:
                raise ValueError(f"log_sigma must be finite and >= 0, got {self.log_sigma}")
        else:
            raise ValueError("observation kind must be 'fixed', 'uniform' or 'lognormal'")

    @classmethod
    def fixed(cls, sigma_sq) -> "ObservationModel":
        return cls(kind="fixed", sigma_sq=sigma_sq)

    @classmethod
    def uniform(cls, low: float, high: float) -> "ObservationModel":
        return cls(kind="uniform", low=low, high=high)

    @classmethod
    def lognormal(cls, median: float, log_sigma: float) -> "ObservationModel":
        return cls(kind="lognormal", median=median, log_sigma=log_sigma)

    @property
    def draws_per_sensor(self) -> int:
        return 0 if self.kind == "fixed" else 1

    def variances(self, k: int, u: np.ndarray) -> np.ndarray:
        """Observation variances for a batch; ``u`` has shape (trials, k or 0)."""
        if self.kind == "fixed":
            values = _for_k("sigma_sq", self.sigma_sq, k)
            return np.broadcast_to(values, (u.shape[0], k)) if u.ndim == 2 else values
        if self.kind == "uniform":
            return self.low + (self.high - self.low) * u
        # lognormal; clamp the uniform away from 0 so ndtri stays finite
        from scipy.special import ndtri

        z = ndtri(np.maximum(u, 2.0**-64))
        return self.median * np.exp(self.log_sigma * z)


@dataclass(frozen=True)
class NetworkModel:
    """Everything needed to draw snapshots: prior, propagation, fading, observation."""

    prior: SignalPrior
    propagation: PropagationModel
    fading: FadingModel
    observation: ObservationModel

    def __post_init__(self):
        # Every gamma and every nonzero s the sampler can draw needs a finite reciprocal.  Its
        # maps are monotone, so the extreme uniforms bound them: u = 0 (the lognormal map clamps
        # it), 2^-53 (the smallest nonzero fade) and 1 - 2^-53.
        u = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53])
        with np.errstate(all="ignore"):
            sigma_sq = self.observation.variances(np.size(self.observation.sigma_sq), u[:, None])
            mean_s = self.propagation.mean_channel_snr(np.size(self.propagation.distance_m))
            drawn = {"gamma": self.prior.variance_theta / sigma_sq, "nonzero channel SNR s":
                     np.multiply.outer(mean_s, self.fading.power_from_uniform(u[1:]))}
        for name, values in drawn.items():
            if not (np.isfinite(values) & (values > _MIN_GAMMA)).all():
                raise ValueError(
                    f"the sampler can draw {name} from {values.min():.6g} to {values.max():.6g}; "
                    f"each must be finite and above {_MIN_GAMMA!r}, for a finite reciprocal"
                )

    def draws_per_trial(self, k: int) -> int:
        return k * (self.fading.draws_per_sensor + self.observation.draws_per_sensor)


def default_network(
    *,
    sigma_theta_sq: float = 1.0,
    sigma_k_sq: float = 0.01,
    nominal_gain: float = 1e-3,
    channel_noise_variance: float = 1e-12,
    distance_m: float = 100.0,
    fading_kind: str = "rayleigh",
) -> NetworkModel:
    """The stock simulation setup: -30 dB gain at 1 m, -90 dBm channel noise,
    100 m links, observation variance 0.01 against a unit-variance signal."""
    return NetworkModel(
        prior=SignalPrior(sigma_theta_sq),
        propagation=PropagationModel(
            nominal_gain=nominal_gain,
            distance_m=distance_m,
            channel_noise_variance=channel_noise_variance,
        ),
        fading=FadingModel(kind=fading_kind),
        observation=ObservationModel.fixed(sigma_k_sq),
    )


def sample_batch(
    model: NetworkModel, k: int, seed: int, start_trial: int, n_trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (s, gamma) arrays of shape (n_trials, k) for a trial range.

    Bit-identical to stacking single-trial draws: trial addressing does not
    depend on n_trials or on where the range starts.  Both arrays are
    column-major (Fortran order) when k < _COLUMN_MAJOR_BELOW_K and row-major
    otherwise; the values do not depend on the layout.
    """
    k = _check_int("k", k, 1)
    u = _uniform_block(seed, start_trial, n_trials, model.draws_per_trial(k))
    n_fade = k * model.fading.draws_per_sensor
    fade = (
        model.fading.power_from_uniform(u[:, :n_fade])
        if n_fade
        else np.full((n_trials, k), model.fading.mean_square)
    )
    layout = "F" if k < _COLUMN_MAJOR_BELOW_K else "C"
    s = np.multiply(model.propagation.mean_channel_snr(k), fade, order=layout)
    sigma_sq = model.observation.variances(k, u[:, n_fade:])
    return s, np.divide(model.prior.variance_theta, sigma_sq, order=layout)


def sample_snapshot(model: NetworkModel, k: int, rng: RngStream) -> Snapshot:
    """One random snapshot, a pure function of (model, k, rng.seed, rng.trial)."""
    s, gamma = sample_batch(model, k, rng.seed, rng.trial, 1)
    return Snapshot(model.prior, gamma[0], s[0])


_MEAN_ETA_SAMPLES = 1_000_000
_MEAN_ETA_SEED = 0x6D65616E  # fixed internal seed so the estimate is reproducible


@lru_cache(maxsize=64)
def _mean_obs_factor(observation: ObservationModel, sigma_theta_sq: float) -> float:
    """E[1 / (1 + 1/gamma)] for a random observation model, by fixed-seed sampling."""
    u = _uniform_block(_MEAN_ETA_SEED, 0, 1, _MEAN_ETA_SAMPLES)
    sigma_sq = observation.variances(_MEAN_ETA_SAMPLES, u).ravel()
    return float(np.mean(1.0 / (1.0 + sigma_sq / sigma_theta_sq)))


def mean_merit(model: NetworkModel, k: int = 1) -> float:
    """Expected per-sensor merit E[eta], averaged over the k sensor positions.

    Exact for fixed observation variances (the fading mean factors out);
    random observation models use a 10^6-draw fixed-seed estimate of the
    observation factor, with the channel part still exact.
    """
    k = _check_int("k", k, 1)
    mean_s = model.propagation.mean_channel_snr(k) * model.fading.mean_square
    if model.observation.kind == "fixed":
        sigma_sq = model.observation.variances(k, np.empty(0))
        factor = 1.0 / (1.0 + sigma_sq / model.prior.variance_theta)
    else:
        factor = _mean_obs_factor(model.observation, model.prior.variance_theta)
    return float(np.mean(mean_s * factor))


__all__ = [
    "RngStream",
    "PropagationModel",
    "FadingModel",
    "ObservationModel",
    "NetworkModel",
    "default_network",
    "sample_batch",
    "sample_snapshot",
    "mean_merit",
]
