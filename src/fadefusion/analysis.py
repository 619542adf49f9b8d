"""Monte Carlo estimators and analytical checks for outage and diversity.

Estimation outage is the event that the fused distortion of a random
snapshot exceeds a threshold.  This module estimates outage curves and
related averages under three transmit policies (equal split, optimal, and
optimal with per-sensor caps), evaluates the large-deviation rate function
that governs how outage decays with the sensor count, and provides the
bound/sandwich checks used to validate those claims empirically.

Trials are keyed by (seed, trial index) and processed in fixed-size chunks,
so every estimate is bit-identical for a given seed regardless of how many
worker processes execute the chunks.  ``estimate_sweep`` runs whole sweeps:
each chunk is sampled, and ranked for the optimal policy, once per K for all
points and policies, and one process pool serves the whole run.  The four
estimators are one-point calls into it.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .allocation import (
    _equal_budget_batch,
    capped_mse_batch,
    equal_power_mse_batch,
    min_power_total_batch,
    sum_power_mse_batch,
)
from .channel import NetworkModel, sample_batch
from .errors import DivergentMGF, InsufficientData
from .model import Snapshot, equal_allocation, signal_contributions

#: Trials per work unit.  Fixed independently of the worker count so that
#: floating-point reduction order (and hence every digit of the output)
#: does not depend on parallelism.
CHUNK_TRIALS = 1 << 16


# ---------------------------------------------------------------------------
# Transmit policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualPolicy:
    """Every sensor transmits the same power."""


@dataclass(frozen=True)
class OptimalPolicy:
    """Distortion-minimizing allocation under the sum power budget."""


@dataclass(frozen=True)
class CappedPolicy:
    """Optimal allocation with a uniform per-sensor transmit cap.

    The cap scales with the budget: P_max = cap_scale * P_tot / K.
    """

    cap_scale: float = 1.5

    def __post_init__(self):
        if not self.cap_scale > 0:
            raise ValueError("cap_scale must be > 0")


Policy = Union[EqualPolicy, OptimalPolicy, CappedPolicy]


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage probability with its binomial confidence half-width."""

    count: int
    trials: int

    @property
    def probability(self) -> float:
        return self.count / self.trials

    @property
    def half_width_95(self) -> float:
        p = self.probability
        return 1.96 * math.sqrt(p * (1.0 - p) / self.trials)


@dataclass(frozen=True)
class AverageDistortion:
    """Sample-mean distortion; zero-power trials are excluded and counted."""

    mean: float
    excluded: int
    trials: int


@dataclass(frozen=True)
class MinPowerSummary:
    """Mean total power of the minimum-power allocation vs the equal-power baseline.

    The baseline is the smallest uniform budget meeting the target for each
    snapshot.  Infeasible snapshots are excluded from both means and counted.
    """

    mean_optimal_w: float
    mean_equal_w: float
    infeasible: int
    trials: int


# ---------------------------------------------------------------------------
# Sweep driver: chunked (optionally multiprocess) trial execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """One estimator at one K over all points of a sweep.

    ``kind`` is "outage", "distortion", "active" or "min-power"; ``points``
    are budgets p_tot, or distortion targets for "min-power"; ``policy`` and
    the outage threshold ``d0`` apply where the estimator takes them.
    """

    kind: str
    k: int
    points: tuple[float, ...]
    policy: Optional[Policy] = None
    d0: Optional[float] = None


def _validate_sweep(curves: Sequence[Curve], trials: int, workers: int) -> None:
    """Reject bad estimator inputs before any trial runs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    for curve in curves:
        if curve.kind not in ("outage", "distortion", "active", "min-power"):
            raise ValueError(f"unknown curve kind {curve.kind!r}")
        if curve.k < 1:
            raise ValueError("k must be >= 1")
        if not all(0 < x < math.inf for x in curve.points):
            raise ValueError("sweep points (p_tot, or d0 targets) must be positive and finite")
        if curve.kind == "outage" and not 0 < curve.d0 < math.inf:
            raise ValueError("the distortion threshold must be positive and finite")


def _certain_outage(model: NetworkModel, curve: Curve) -> bool:
    """An outage curve whose threshold is at or below a deterministic distortion floor."""
    if curve.kind != "outage" or model.observation.kind != "fixed":
        return False
    gamma = model.prior.variance_theta / model.observation.variances(curve.k, np.empty(0))
    floor = model.prior.variance_theta / float(gamma.sum())
    if curve.d0 > floor:
        return False
    warnings.warn(
        f"threshold {curve.d0:.6g} is at or below the distortion floor {floor:.6g}; "
        "outage is 1 for every realization",
        stacklevel=3,
    )
    return True


def _policy_mse(policy: Policy, k: int, s: np.ndarray, gamma: np.ndarray, sigma_sq: float,
                budgets: tuple[float, ...]) -> np.ndarray:
    """Fused distortion per (budget, trial) of one chunk; +inf marks zero-power trials."""
    if isinstance(policy, EqualPolicy):
        return equal_power_mse_batch(gamma, s, sigma_sq, budgets)
    if isinstance(policy, OptimalPolicy):
        return sum_power_mse_batch(gamma, s, sigma_sq, budgets)[0]
    if isinstance(policy, CappedPolicy):
        return np.array([capped_mse_batch(gamma, s, sigma_sq, p, policy.cap_scale * p / k)
                         for p in budgets])
    raise TypeError(f"unknown policy {policy!r}")


def _curve_sums(curve: Curve, s: np.ndarray, gamma: np.ndarray, sigma_sq: float) -> list:
    """Per-point partial sums of one curve over one chunk of trials."""
    n = s.shape[0]
    if curve.kind == "active":
        return [(int(k1.sum()),) for k1 in sum_power_mse_batch(gamma, s, sigma_sq, curve.points)[1]]
    if curve.kind == "min-power":
        sums = []
        for d0 in curve.points:
            optimal, _, feasible = min_power_total_batch(gamma, s, sigma_sq, d0)
            equal = _equal_budget_batch(gamma[feasible], s[feasible], sigma_sq, d0)
            n_feasible = int(feasible.sum())
            sums.append((float(optimal[feasible].sum()), float(equal.sum()), n_feasible,
                         n - n_feasible))
        return sums
    mse = _policy_mse(curve.policy, curve.k, s, gamma, sigma_sq, curve.points)
    if curve.kind == "outage":
        return [(int(np.count_nonzero(row > curve.d0)),) for row in mse]
    finite = np.isfinite(mse)
    return [(float(row[ok].sum()), int(ok.sum()), int(n - ok.sum()))
            for row, ok in zip(mse, finite)]


def _sweep_chunk(task) -> list:
    """Sample one chunk of trials once and evaluate every curve of its K on it."""
    model, curves, seed, start, n = task
    s, gamma = sample_batch(model, curves[0].k, seed, start, n)
    return [_curve_sums(curve, s, gamma, model.prior.variance_theta) for curve in curves]


def _summarize(curve: Curve, trials: int, sums: list):
    if curve.kind == "outage":
        return OutageEstimate(count=sums[0], trials=trials)
    if curve.kind == "active":
        return sums[0] / (trials * curve.k)
    if curve.kind == "distortion":
        total, finite, excluded = sums
        return AverageDistortion(total / finite if finite else math.nan, excluded, trials)
    sum_opt, sum_eq, feasible, infeasible = sums
    if feasible == 0:
        return MinPowerSummary(math.nan, math.nan, infeasible, trials)
    return MinPowerSummary(sum_opt / feasible, sum_eq / feasible, infeasible, trials)


def estimate_sweep(
    model: NetworkModel, curves: Sequence[Curve], trials: int, seed: int, *, workers: int = 1
) -> list[list]:
    """Every point of every curve from one pass over the trial chunks.

    Each (K, chunk) task samples its trials once and evaluates all curves of
    that K at all their points.  Per-point partial sums are reduced in chunk
    order, so each result equals a one-point call's at any ``workers``.  More
    than one task and worker start one pool of min(workers, tasks) processes.
    Returns per curve one result per point (OutageEstimate, AverageDistortion,
    active fraction or MinPowerSummary, by kind).
    """
    _validate_sweep(curves, trials, workers)
    groups: dict[int, list[int]] = {}
    for i, curve in enumerate(curves):
        if not _certain_outage(model, curve):
            groups.setdefault(curve.k, []).append(i)
    chunks = [(start, min(CHUNK_TRIALS, trials - start))
              for start in range(0, trials, CHUNK_TRIALS)]
    tasks = [(model, [curves[i] for i in members], seed, start, n)
             for members in groups.values() for start, n in chunks]
    if workers == 1 or len(tasks) <= 1:
        parts = [_sweep_chunk(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            parts = list(pool.map(_sweep_chunk, tasks))
    results = [[OutageEstimate(trials, trials)] * len(curve.points) for curve in curves]
    for g, members in enumerate(groups.values()):
        per_chunk = parts[g * len(chunks):(g + 1) * len(chunks)]
        for j, i in enumerate(members):
            results[i] = [
                _summarize(curves[i], trials, [sum(column) for column in zip(*point)])
                for point in zip(*(chunk[j] for chunk in per_chunk))
            ]
    return results


# ---------------------------------------------------------------------------
# Estimators: one-point calls into the sweep driver
# ---------------------------------------------------------------------------


def outage_probability(
    model: NetworkModel,
    k: int,
    policy: Policy,
    d0: float,
    p_tot: float,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> OutageEstimate:
    """Fraction of random snapshots whose fused distortion exceeds ``d0``.

    Zero-power trials count as outage.  A threshold at or below the
    deterministic distortion floor cannot be met by any allocation; that
    case returns certain outage immediately with a warning.
    """
    curve = Curve("outage", k, (p_tot,), policy, d0)
    return estimate_sweep(model, [curve], trials, seed, workers=workers)[0][0]


def average_distortion(
    model: NetworkModel,
    k: int,
    policy: Policy,
    p_tot: float,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> AverageDistortion:
    """Sample-mean fused distortion over random snapshots."""
    curve = Curve("distortion", k, (p_tot,), policy)
    return estimate_sweep(model, [curve], trials, seed, workers=workers)[0][0]


def active_fraction(
    model: NetworkModel, k: int, p_tot: float, trials: int, seed: int, *, workers: int = 1
) -> float:
    """Mean fraction of sensors kept on by the optimal allocation."""
    curve = Curve("active", k, (p_tot,))
    return estimate_sweep(model, [curve], trials, seed, workers=workers)[0][0]


def average_min_power(
    model: NetworkModel, k: int, d0: float, trials: int, seed: int, *, workers: int = 1
) -> MinPowerSummary:
    """Mean total power needed to hit the distortion target, optimal vs equal split."""
    curve = Curve("min-power", k, (d0,))
    return estimate_sweep(model, [curve], trials, seed, workers=workers)[0][0]


# ---------------------------------------------------------------------------
# Distortion floor of the large-network limit
# ---------------------------------------------------------------------------


def d_infinity(model: NetworkModel, p_tot: float, *, k: int = 1) -> float:
    """Large-K limit of the equal-power distortion at a fixed total budget.

    Equals the signal variance over (budget times the expected sensor
    merit).  The merit expectation is exact for fixed observation variances
    and a fixed-seed 10^6-draw estimate otherwise; see
    :func:`fadefusion.channel.mean_merit`.
    """
    from .channel import mean_merit

    if not p_tot > 0:
        raise ValueError("p_tot must be > 0")
    return model.prior.variance_theta / (p_tot * mean_merit(model, k))


# ---------------------------------------------------------------------------
# Rate functions and tail bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RateFunctionQuery:
    """A tail point ``a`` plus the distribution whose sample mean is bounded.

    Exactly one of ``mean_b`` (exponential distribution with that mean) or
    ``samples`` (an empirical sample set) must be given.
    """

    a: float
    mean_b: Optional[float] = None
    samples: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("a must be > 0")
        if (self.mean_b is None) == (self.samples is None):
            raise ValueError("provide exactly one of mean_b or samples")
        if self.mean_b is not None and not self.mean_b > 0:
            raise ValueError("mean_b must be > 0")
        if self.samples is not None:
            samples = np.asarray(self.samples, dtype=float)
            if samples.size < 2:
                raise ValueError("need at least two samples")
            object.__setattr__(self, "samples", samples)


#: Absolute tolerance on the maximizing theta of rate_function_numeric.
_THETA_TOL = 1e-12


def rate_function_exponential(a: float, mean_b: float) -> float:
    """Closed-form rate function of an exponential distribution with mean ``mean_b``."""
    if not (a > 0 and mean_b > 0):
        raise ValueError("a and mean_b must be > 0")
    ratio = a / mean_b
    return ratio - math.log(ratio) - 1.0


def rate_function_numeric(query: RateFunctionQuery, *, full_output: bool = False):
    """Rate function by maximizing theta*a - log M(theta) over the MGF domain.

    The maximand is concave, so its derivative is decreasing and the
    maximizer is located by bracketed root finding to ``_THETA_TOL``.
    Raises DivergentMGF when the supremum runs off to the domain boundary
    (for empirical samples: ``a`` outside the open sample range).
    """
    from scipy.optimize import brentq
    from scipy.special import logsumexp

    a = query.a
    if query.mean_b is not None:
        b = query.mean_b
        mean = b
        domain_sup = 1.0 / b

        def slope(theta: float) -> float:
            return a - b / (1.0 - b * theta)

        def log_mgf(theta: float) -> float:
            return -math.log1p(-b * theta)

    else:
        x = query.samples
        mean = float(np.mean(x))
        domain_sup = math.inf
        if a >= float(np.max(x)) or a <= float(np.min(x)):
            raise DivergentMGF(
                "supremum attained at the MGF domain boundary; "
                "a lies outside the open sample range"
            )

        def slope(theta: float) -> float:
            weights = theta * x
            weights = weights - np.max(weights)
            w = np.exp(weights)
            return a - float((x * w).sum() / w.sum())

        def log_mgf(theta: float) -> float:
            return float(logsumexp(theta * x) - math.log(x.size))

    if a == mean:
        return (0.0, 0.0) if full_output else 0.0

    if a > mean:  # upper tail: maximizer at positive theta
        lo = 0.0
        if math.isfinite(domain_sup):
            for j in range(1, 200):
                hi = domain_sup * (1.0 - 2.0**-j)
                if slope(hi) < 0:
                    break
                lo = hi
            else:
                raise DivergentMGF("no interior maximizer below the MGF domain boundary")
        else:
            hi = 1.0
            for _ in range(400):
                if slope(hi) < 0:
                    break
                lo, hi = hi, hi * 2.0
            else:
                raise DivergentMGF("slope never turned negative; supremum diverges")
    else:  # lower tail: maximizer at negative theta
        hi = 0.0
        lo = -1.0
        for _ in range(400):
            if slope(lo) > 0:
                break
            hi, lo = lo, lo * 2.0
        else:
            raise DivergentMGF("slope never turned positive; supremum diverges")

    theta_star = brentq(slope, lo, hi, xtol=_THETA_TOL)
    value = max(theta_star * a - log_mgf(theta_star), 0.0)
    return (value, theta_star) if full_output else value


def chernoff_bound(k: int, rate_value: float) -> float:
    """Upper bound exp(-K * I) on the tail probability of a K-sample mean."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if rate_value < 0:
        raise ValueError("rate_value must be >= 0")
    return math.exp(-k * rate_value)


# ---------------------------------------------------------------------------
# Law-of-large-numbers sandwich for the equal-power fused SNR
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SandwichCheck:
    """Bounds L <= fused SNR <= U for the equal-power split of one snapshot."""

    lower: float
    upper: float
    fused_snr: float
    ok: bool

    @property
    def lower_margin(self) -> float:
        return self.fused_snr - self.lower

    @property
    def upper_margin(self) -> float:
        return self.upper - self.fused_snr


def sandwich_check(snapshot: Snapshot, p_tot: float) -> SandwichCheck:
    """Check the linearization bounds on the equal-power fused SNR.

    The upper bound drops the self-interference denominator term; the lower
    bound subtracts its worst case.  Both collapse onto the exact value for
    noiseless sensors, whose correction term carries a 1/gamma factor.
    """
    if not p_tot > 0:
        raise ValueError("p_tot must be > 0")
    k = snapshot.k
    upper = p_tot / k * float(np.sum(snapshot.eta))
    correction = (p_tot / k) ** 2 * float(np.sum(snapshot.inv_gamma * snapshot.s**2))
    lower = upper - correction
    fused = float(np.sum(signal_contributions(snapshot, equal_allocation(snapshot, p_tot))))
    tol = 1e-12 * max(1.0, abs(upper))
    ok = (fused >= lower - tol) and (fused <= upper + tol)
    return SandwichCheck(lower=lower, upper=upper, fused_snr=fused, ok=ok)


# ---------------------------------------------------------------------------
# Diversity order from outage curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log10 budget, -log10 outage) points."""

    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    residual: float


def diversity_slope(
    p_tot: Sequence[float],
    outage: Sequence[float],
    *,
    trials: Optional[int] = None,
    min_count: int = 30,
    max_outage: float = 0.3,
) -> SlopeFit:
    """Fit the log-log slope of an outage-vs-budget curve.

    Only points inside the fit window enter the regression: outage at most
    ``max_outage`` (past the pre-asymptotic knee) and, when ``trials`` is
    given, at least ``min_count / trials`` (enough positive counts to trust
    the estimate).  Raises InsufficientData with fewer than two usable
    points.
    """
    p = np.asarray(p_tot, dtype=float)
    q = np.asarray(outage, dtype=float)
    if p.shape != q.shape:
        raise ValueError("p_tot and outage must have equal length")
    keep = (q > 0) & (q <= max_outage) & (p > 0)
    if trials is not None:
        keep &= q >= min_count / trials
    if int(keep.sum()) < 2:
        raise InsufficientData(
            f"only {int(keep.sum())} points inside the fit window; need at least 2"
        )
    x = np.log10(p[keep])
    y = -np.log10(q[keep])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((slope * x + intercept - y) ** 2)))
    return SlopeFit(
        points=tuple((float(a), float(b)) for a, b in zip(x, y)),
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
    )


__all__ = [
    "CHUNK_TRIALS",
    "EqualPolicy",
    "OptimalPolicy",
    "CappedPolicy",
    "Policy",
    "Curve",
    "OutageEstimate",
    "AverageDistortion",
    "MinPowerSummary",
    "RateFunctionQuery",
    "SandwichCheck",
    "SlopeFit",
    "estimate_sweep",
    "outage_probability",
    "average_distortion",
    "active_fraction",
    "average_min_power",
    "d_infinity",
    "rate_function_exponential",
    "rate_function_numeric",
    "chernoff_bound",
    "sandwich_check",
    "diversity_slope",
]
