"""Experiment configuration: INI-style files, defaults, validation, hashing.

Experiments carry ~15 parameters, so they live in a flat key = value file
with sections rather than positional flags; CLI flags override file values.
Powers accept dBm / W / mW spellings, gains accept dB; everything is
converted to linear units here, once.

The defaults reproduce the stock simulation constants: nominal gain -30 dB
at 1 m, channel noise -90 dBm, 100 m links, observation variance 0.01,
unit signal variance, outage threshold 0.02, per-sensor cap at 1.5x the
equal share, and 10^4 realizations for min-power sweeps.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import FadingModel, NetworkModel, ObservationModel, PropagationModel
from .model import SignalPrior, _check_int
from .units import parse_gain, parse_power

SCENARIOS = ("outage", "distortion", "outage-compare", "active-fraction", "min-power")
SEED_ENV_VAR = "FADEFUSION_SEED"


class ConfigError(ValueError):
    """A configuration file or override failed validation (CLI exit code 2)."""


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis: total power (watts) or distortion threshold."""

    axis: str  # "p_tot" | "d0"
    start: float
    stop: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        object.__setattr__(self, "points", _check_int("sweep points", self.points, 1))
        if self.spacing not in ("log", "linear"):
            raise ConfigError("sweep spacing must be 'log' or 'linear'")
        if self.spacing == "log" and not (self.start > 0 and self.stop > 0):
            raise ConfigError("log-spaced sweeps need positive endpoints")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: scenario, network model, sweep and run knobs."""

    scenario: str
    k_values: tuple[int, ...]
    model: NetworkModel
    policy: str
    policies: tuple[str, ...]
    cap_scale: float
    d0: float
    sweep: SweepSpec
    trials: int
    seed: int
    workers: int
    output: str

    @property
    def k(self) -> int:
        return self.k_values[0]


_DEFAULTS = {
    "experiment": {
        "scenario": "",
        "k": "",
        "policy": "equal",
        "policies": "equal,optimal",
        "cap_scale": "1.5",
        "d0": "0.02",
        "trials": "",
        "seed": "",
    },
    "sweep": {
        "axis": "p_tot",
        "start": "",
        "stop": "",
        "points": "9",
        "spacing": "log",
    },
    "model": {
        "sigma_theta_sq": "1.0",
        "observation": "fixed",
        "sigma_k_sq": "0.01",
        "obs_low": "",
        "obs_high": "",
        "obs_median": "",
        "obs_log_sigma": "",
        "nominal_gain": "-30 dB",
        "channel_noise": "-90 dBm",
        "distance_m": "100",
        "path_loss_exponent": "2",
        "fading": "rayleigh",
        "fading_mean_square": "1.0",
    },
    "output": {
        "path": "experiment.csv",
        "workers": "1",
    },
}

def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None


def _floats(raw: str) -> float | tuple[float, ...]:
    """A comma list of numbers as a tuple of floats; a single number as a float."""
    values = tuple(float(v) for v in raw.split(","))
    return values[0] if len(values) == 1 else values


def _build_model(section: configparser.SectionProxy) -> NetworkModel:
    sigma_theta_sq = _parse_float("model", "sigma_theta_sq", section["sigma_theta_sq"])
    obs_kind = section["observation"].strip().lower()
    try:
        if obs_kind == "fixed":
            observation = ObservationModel.fixed(_floats(section["sigma_k_sq"]))
        elif obs_kind == "uniform":
            observation = ObservationModel.uniform(
                _parse_float("model", "obs_low", section["obs_low"]),
                _parse_float("model", "obs_high", section["obs_high"]),
            )
        elif obs_kind == "lognormal":
            observation = ObservationModel.lognormal(
                _parse_float("model", "obs_median", section["obs_median"]),
                _parse_float("model", "obs_log_sigma", section["obs_log_sigma"]),
            )
        else:
            raise ConfigError(f"unknown observation model {obs_kind!r}")

        propagation = PropagationModel(
            nominal_gain=parse_gain(section["nominal_gain"]),
            distance_m=_floats(section["distance_m"]),
            channel_noise_variance=parse_power(section["channel_noise"]),
            path_loss_exponent=_parse_float(
                "model", "path_loss_exponent", section["path_loss_exponent"]
            ),
        )
        fading = FadingModel(
            kind=section["fading"].strip().lower(),
            mean_square=_parse_float("model", "fading_mean_square", section["fading_mean_square"]),
        )
        return NetworkModel(
            prior=SignalPrior(sigma_theta_sq),
            propagation=propagation,
            fading=fading,
            observation=observation,
        )
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid [model] section: {exc}") from exc


def _read_sections(path: Optional[str], overrides: Optional[dict]) -> configparser.ConfigParser:
    """Built-in defaults, then the file (if any), then ``section.key`` overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.read_dict(_DEFAULTS)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
    for dotted, value in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigError(f"--set needs section.key=value, got {dotted!r}")
        section, key = dotted.split(".", 1)
        parser.read_dict({section: {key: value}})
    for section in parser.sections():  # an empty unknown section sets nothing and passes
        for key in parser[section]:
            if key not in _DEFAULTS.get(section, {}):
                raise ConfigError(f"unknown config key {f'{section}.{key}'!r}")
    return parser


def load_config(path: str, *, overrides: Optional[dict[str, str]] = None) -> ExperimentConfig:
    """Read and validate an experiment file, applying ``section.key`` overrides on top.

    Override precedence: overrides > file values > built-in defaults; every
    section and key must be one of the built-in defaults.  The default seed
    comes from the environment variable named by ``SEED_ENV_VAR``, falling
    back to 0.  The ranges of k, trials, seed and workers are not checked
    here: ``estimate_sweep`` checks them before any trial runs.
    """
    parser = _read_sections(path, overrides)
    exp = parser["experiment"]
    scenario = exp["scenario"].strip().lower()
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {', '.join(SCENARIOS)}; got {scenario!r}")

    if not exp["k"].strip():
        raise ConfigError("[experiment] k is required")
    k_values = tuple(_parse_int("experiment", "k", v.strip()) for v in exp["k"].split(","))
    if scenario not in ("outage", "distortion") and len(k_values) != 1:
        raise ConfigError(f"scenario {scenario!r} takes a single k")

    policy = exp["policy"].strip().lower()
    if policy not in ("equal", "optimal", "capped"):
        raise ConfigError("policy must be equal, optimal or capped")
    policies = tuple(p.strip().lower() for p in exp["policies"].split(","))
    if scenario == "outage-compare":
        if not policies or any(p not in ("equal", "optimal", "capped") for p in policies):
            raise ConfigError("policies must list equal, optimal and/or capped")
        if len(set(policies)) != len(policies):
            raise ConfigError("policies must not repeat")

    cap_scale = _parse_float("experiment", "cap_scale", exp["cap_scale"])
    if not cap_scale > 0:
        raise ConfigError("cap_scale must be > 0")
    d0 = _parse_float("experiment", "d0", exp["d0"])
    if not d0 > 0:
        raise ConfigError("d0 must be > 0")

    raw_trials = exp["trials"].strip()
    trials = _parse_int("experiment", "trials", raw_trials) if raw_trials else 10_000

    raw_seed = exp["seed"].strip() or os.environ.get(SEED_ENV_VAR, "0")
    seed = _parse_int("experiment", "seed", raw_seed)

    sweep_section = parser["sweep"]
    axis = sweep_section["axis"].strip().lower()
    expected_axis = "d0" if scenario == "min-power" else "p_tot"
    if axis != expected_axis:
        raise ConfigError(f"scenario {scenario!r} sweeps {expected_axis}, not {axis!r}")
    if not sweep_section["start"].strip() or not sweep_section["stop"].strip():
        raise ConfigError("[sweep] start and stop are required")
    parse_axis = parse_power if axis == "p_tot" else float
    try:
        start = parse_axis(sweep_section["start"])
        stop = parse_axis(sweep_section["stop"])
    except ValueError as exc:
        raise ConfigError(f"invalid sweep endpoint: {exc}") from exc
    sweep = SweepSpec(
        axis=axis,
        start=float(start),
        stop=float(stop),
        points=_parse_int("sweep", "points", sweep_section["points"]),
        spacing=sweep_section["spacing"].strip().lower(),
    )
    model = _build_model(parser["model"])

    out_section = parser["output"]
    output = out_section["path"]
    workers = _parse_int("output", "workers", out_section["workers"])

    return ExperimentConfig(
        scenario=scenario,
        k_values=k_values,
        model=model,
        policy=policy,
        policies=policies,
        cap_scale=cap_scale,
        d0=d0,
        sweep=sweep,
        trials=trials,
        seed=seed,
        workers=workers,
        output=output,
    )


def load_model_only(
    path: Optional[str] = None, overrides: Optional[dict[str, str]] = None
) -> NetworkModel:
    """Build a NetworkModel from the [model] section alone (defaults if no file)."""
    return _build_model(_read_sections(path, overrides)["model"])


def config_hash(cfg: ExperimentConfig) -> str:
    """Digest of the scientific parameters; execution knobs (workers, output
    path) are excluded so reruns with different parallelism hash identically."""
    model = cfg.model
    obs = model.observation
    fields = [
        ("scenario", cfg.scenario),
        ("k", ",".join(str(k) for k in cfg.k_values)),
        ("policy", cfg.policy),
        ("policies", ",".join(cfg.policies)),
        ("cap_scale", repr(cfg.cap_scale)),
        ("d0", repr(cfg.d0)),
        ("trials", str(cfg.trials)),
        ("seed", str(cfg.seed)),
        ("sweep", f"{cfg.sweep.axis}:{cfg.sweep.start!r}:{cfg.sweep.stop!r}"
                  f":{cfg.sweep.points}:{cfg.sweep.spacing}"),
        ("sigma_theta_sq", repr(model.prior.variance_theta)),
        ("observation", f"{obs.kind}:{obs.sigma_sq!r}:{obs.low!r}:{obs.high!r}"
                        f":{obs.median!r}:{obs.log_sigma!r}"),
        ("propagation", f"{model.propagation.nominal_gain!r}:{model.propagation.distance_m!r}"
                        f":{model.propagation.channel_noise_variance!r}"
                        f":{model.propagation.path_loss_exponent!r}"),
        ("fading", f"{model.fading.kind}:{model.fading.mean_square!r}"),
    ]
    canonical = "\n".join(f"{key}={value}" for key, value in fields)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
