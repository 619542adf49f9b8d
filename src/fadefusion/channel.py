"""Random snapshot generation: propagation, fading and observation models.

Channel SNRs follow s = G0 * |r|^2 / (xi^2 * d^nu) with Rayleigh-amplitude
fading of unit mean power, so |r|^2 is exponential and is drawn directly as
-log(1 - U) rather than squaring an amplitude.  Observation noise variances
are either fixed or drawn i.i.d. per sensor.

Randomness is counter-based: trial t of a run seeded with ``seed`` owns a
fixed window of the Philox counter sequence, so sampling is a pure function
of (config, K, seed, trial) and batches reproduce bit-identically no matter
how trials are chunked across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import SensorSite, SignalPrior, Snapshot

_DOUBLES_PER_BLOCK = 4  # one Philox counter increment yields 4 uint64 = 4 doubles
_MAX_SEED = 2**64


@dataclass(frozen=True)
class RngStream:
    """Addresses one trial's private slice of the random sequence."""

    seed: int
    trial: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < _MAX_SEED):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if int(self.trial) < 0:
            raise ValueError("trial index must be >= 0")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "trial", int(self.trial))


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
        if not self.nominal_gain > 0:
            raise ValueError("nominal_gain must be > 0")
        if not self.channel_noise_variance > 0:
            raise ValueError("channel_noise_variance must be > 0")
        distances = self.distance_m
        if isinstance(distances, (int, float)):
            if not distances > 0:
                raise ValueError("distance_m must be > 0")
        else:
            distances = tuple(float(d) for d in distances)
            if not all(d > 0 for d in distances):
                raise ValueError("every distance must be > 0")
            object.__setattr__(self, "distance_m", distances)

    def mean_channel_snr(self, k: int) -> np.ndarray:
        """Per-sensor mean channel SNR (value at |r|^2 = 1), shape (k,)."""
        d = np.asarray(self.distance_m, dtype=float)
        if d.ndim == 0:
            d = np.full(k, float(d))
        elif d.shape[0] != k:
            raise ValueError(f"distance_m has {d.shape[0]} entries but K={k}")
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
        if not self.mean_square > 0:
            raise ValueError("mean_square must be > 0")

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
            values = self.sigma_sq
            if isinstance(values, (int, float)):
                if not values > 0:
                    raise ValueError("sigma_sq must be > 0")
            else:
                values = tuple(float(v) for v in values)
                if not all(v > 0 for v in values):
                    raise ValueError("every sigma_sq must be > 0")
                object.__setattr__(self, "sigma_sq", values)
        elif self.kind == "uniform":
            if not (0 < self.low <= self.high):
                raise ValueError("uniform observation model needs 0 < low <= high")
        elif self.kind == "lognormal":
            if not (self.median > 0 and self.log_sigma >= 0):
                raise ValueError("lognormal observation model needs median > 0, log_sigma >= 0")
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
            values = np.asarray(self.sigma_sq, dtype=float)
            if values.ndim == 0:
                values = np.full(k, float(values))
            elif values.shape[0] != k:
                raise ValueError(f"sigma_sq has {values.shape[0]} entries but K={k}")
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
    depend on n_trials or on where the range starts.
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    u = _uniform_block(seed, start_trial, n_trials, model.draws_per_trial(k))
    n_fade = k * model.fading.draws_per_sensor
    fade = (
        model.fading.power_from_uniform(u[:, :n_fade])
        if n_fade
        else np.full((n_trials, k), model.fading.mean_square)
    )
    s = model.propagation.mean_channel_snr(k) * fade
    sigma_sq = model.observation.variances(k, u[:, n_fade:])
    gamma = model.prior.variance_theta / sigma_sq
    if gamma.ndim == 1:
        gamma = np.broadcast_to(gamma, (n_trials, k)).copy()
    return s, gamma


def sample_snapshot(model: NetworkModel, k: int, rng: RngStream) -> Snapshot:
    """One random snapshot, a pure function of (model, k, rng.seed, rng.trial)."""
    s, gamma = sample_batch(model, k, rng.seed, rng.trial, 1)
    return Snapshot(
        prior=model.prior,
        sensors=tuple(SensorSite(float(g), float(v)) for g, v in zip(gamma[0], s[0])),
    )


def sample_channel_snr(
    propagation: PropagationModel,
    fading: FadingModel,
    sensor_index: int,
    rng: RngStream,
) -> float:
    """One sensor's random channel SNR from its own slice of the trial stream.

    Consumes the first ``sensor_index + 1`` fading draws of the trial and
    uses the last, so successive sensor indices see independent fades.
    """
    if sensor_index < 0:
        raise ValueError("sensor_index must be >= 0")
    k = max(sensor_index + 1, np.size(propagation.distance_m))  # a per-sensor tuple fixes K
    mean = float(propagation.mean_channel_snr(k)[sensor_index])
    if fading.kind == "none":
        return mean * fading.mean_square
    u = _uniform_block(rng.seed, rng.trial, 1, sensor_index + 1)[0, sensor_index]
    return mean * float(fading.power_from_uniform(np.array(u)))


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
    "sample_channel_snr",
    "mean_merit",
]
