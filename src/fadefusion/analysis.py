"""Monte Carlo estimators and analytical checks for outage and diversity.

Estimation outage is the event that the fused distortion of a random
snapshot exceeds a threshold.  This module estimates outage curves and
related averages under three transmit policies (equal split, optimal, and
optimal with per-sensor caps), evaluates the large-deviation rate function
that governs how outage decays with the sensor count, and provides the
bound/sandwich checks used to validate those claims empirically.

Trials are keyed by (seed, trial index).  A chunk of ``CHUNK_TRIALS``
trials is the unit of work and of reduction: its boundaries do not depend on
the worker count, and each float sum is taken once per chunk, over the
per-row values of the whole chunk in trial order, so every estimate is
bit-identical for a given seed at any worker count.  Within its task a chunk
is sampled and evaluated in blocks of at most ``_BLOCK_VALUES`` sensor-values
(trials x K), which bounds a process's memory at any K; counts add up over
the blocks, and the blocks' per-row values are joined before a float sum.

``estimate_sweep`` runs whole sweeps: each block is sampled once per K for
all points and policies, each curve builds its per-row arrays once per block
for all its points (``_policy_rows``, the one dispatch on the policy), every
ranked kernel reads one merit ranking and one shared scan, and one process
pool serves the whole run.  The four estimators are one-point calls into it.

Outage curves are counted in ascending budget order on a shrinking set of
trials: no policy's distortion rises with the budget, so each budget runs
only on the trials still in outage at the one below it.  An optimal curve
first drops the trials that the equal split, one of the splits the optimal
allocation minimizes over, already keeps out of outage at the lowest budget,
so only the rest are ranked and waterfilled.  Each trial's distortion is the
per-budget kernel's, bit for bit, so every count equals
``count_nonzero(mse > d0)`` over the whole block.
"""

from __future__ import annotations

import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .allocation import (
    _capped_mse,
    _equal_budget,
    _equal_mse,
    _equal_rows,
    _live_total,
    _min_power_total,
    _rank_scan,
    _shrink,
    _waterfill_mse,
    _waterfill_rows,
    equal_power_mse_batch,
    sum_power_mse_batch,  # unused here; stays importable, as perfbench's --trace 1 patches it here
)
from .channel import _MAX_SEED, NetworkModel, mean_merit, sample_batch
from .errors import DivergentMGF, InsufficientData
from .model import Snapshot, _check_int, _check_positive, equal_allocation, signal_contributions

#: Trials per work unit.  Fixed independently of the worker count so that
#: floating-point reduction order (and hence every digit of the output)
#: does not depend on parallelism.
CHUNK_TRIALS = 1 << 16

#: Sensor-values (trials x K) per block at most.  A chunk is sampled and
#: evaluated one block at a time, so a process's temporaries stay bounded at
#: any K.  Blocks are powers of two, so they divide CHUNK_TRIALS.
_BLOCK_VALUES = 1 << 16


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
        _check_positive("cap_scale", self.cap_scale, allow_inf=True)


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

    def __post_init__(self):
        if self.kind not in ("outage", "distortion", "active", "min-power"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        object.__setattr__(self, "k", _check_int("k", self.k, 1))
        if not all(0 < x < math.inf for x in self.points):
            raise ValueError("sweep points (p_tot, or d0 targets) must be positive and finite")
        if self.kind == "outage" and not 0 < self.d0 < math.inf:
            raise ValueError("the distortion threshold must be positive and finite")


def _certain_outage(model: NetworkModel, curve: Curve) -> bool:
    """An outage curve whose threshold is at or below a deterministic distortion floor.

    The floor sigma^2 / sum(gamma) is taken as (sigma^2 / gamma_max) / sum(gamma / gamma_max),
    so K gammas near the largest float do not overflow their sum.
    """
    if curve.kind != "outage" or model.observation.kind != "fixed":
        return False
    gamma = model.prior.variance_theta / model.observation.variances(curve.k, np.empty(0))
    largest = float(gamma.max())
    floor = model.prior.variance_theta / largest / float((gamma / largest).sum())
    if curve.d0 > floor:
        return False
    # Name the first caller outside this module, through estimate_sweep or an estimator.
    frame, level = sys._getframe(), 1
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(
        f"threshold {curve.d0:.6g} is at or below the distortion floor {floor:.6g}; "
        "outage is 1 for every realization",
        stacklevel=level,
    )
    return True


def _policy_rows(policy: Policy, s: np.ndarray, gamma: np.ndarray, sigma_sq: float):
    """A policy's budget-independent per-row arrays, and its distortion at one budget from them.

    Returns (rows, mse) with ``mse(budget, *rows)`` the distortion of each row,
    bit for bit the per-budget kernel's; every array in ``rows`` is (trials, K).
    """
    if isinstance(policy, EqualPolicy):
        return _equal_rows(gamma, s), lambda budget, *rows: _equal_mse(*rows, budget, sigma_sq)
    if isinstance(policy, OptimalPolicy):
        return (_waterfill_rows(_rank_scan(gamma, s))[4:],
                lambda budget, *rows: _waterfill_mse(*rows, budget, sigma_sq)[0])
    if isinstance(policy, CappedPolicy):
        return _waterfill_rows(_rank_scan(gamma, s)), lambda budget, *rows: _capped_mse(
            *rows, budget, policy.cap_scale * budget / gamma.shape[1], sigma_sq)
    raise TypeError(f"unknown policy {policy!r}")


#: Relative margin below d0 of the equal-split screen of optimal outage curves.  It is far above
#: the rounding that can put the optimal kernel over the equal split: at most 4 eps over 2.5M
#: row-budget pairs (K 1-100, gamma 1e-2..1e18, s 1e-3..1e8 with 10% dead, P 1e-14..1e2 W).
_SCREEN_MARGIN = 1e-9


def _outage_counts(curve: Curve, s: np.ndarray, gamma: np.ndarray, sigma_sq: float) -> list:
    """Outage count of one block at each point of an outage curve.

    No policy's distortion rises with the budget, so a row out of outage at
    one budget stays out at every larger one.  The distinct budgets run in
    ascending order, each counting only the rows still in outage at the
    budget below it, until no row is left.  The arrays are gathered down to
    those rows under ``_shrink``'s rule.

    An optimal curve first screens the rows with the equal split at the
    lowest budget.  The optimal allocation's distortion is at most the
    equal split's, so a row whose equal-split distortion is at most
    d0 (1 - ``_SCREEN_MARGIN``) is out of outage at every budget, and only
    the rest are ranked and waterfilled.
    """
    counts = dict.fromkeys(curve.points, 0)
    budgets = sorted(counts)
    live = np.arange(s.shape[0])  # the held rows still in outage
    if isinstance(curve.policy, OptimalPolicy):
        equal = equal_power_mse_batch(gamma, s, sigma_sq, budgets[0])
        live = np.flatnonzero(equal > curve.d0 * (1.0 - _SCREEN_MARGIN))
        if live.size == 0:
            return [(0,)] * len(curve.points)
        (s, gamma), live = _shrink((s, gamma), live)
    rows, mse = _policy_rows(curve.policy, s, gamma, sigma_sq)
    for budget in budgets:
        live = live[mse(budget, *rows)[live] > curve.d0]
        counts[budget] = live.size
        if live.size == 0:
            break
        rows, live = _shrink(rows, live)
    return [(counts[p],) for p in curve.points]


def _curve_rows(curve: Curve, s: np.ndarray, gamma: np.ndarray, sigma_sq: float) -> list:
    """Per-point parts of one curve over one block of trials, for ``_curve_sums``.

    Each part is a tuple whose entries are counts or 1-D arrays of per-row
    values in trial order.  Outage curves count only the rows still in outage
    (``_outage_counts``); distortion and active curves evaluate every budget
    on every row, since each row's value enters the sum.
    """
    if curve.kind == "active":
        rows = _waterfill_rows(_rank_scan(gamma, s))[4:]
        return [(int(_waterfill_mse(*rows, p, sigma_sq)[1].sum()),) for p in curve.points]
    if curve.kind == "min-power":
        ranked, live_total = _rank_scan(gamma, s)[2:], _live_total(gamma, s)
        equal_rows, parts = _equal_rows(gamma, s), []
        for required in [sigma_sq / d0 for d0 in curve.points]:
            optimal, _, feasible = _min_power_total(*ranked, live_total, required)
            # Rows are solved independently, and every row feasible here has a finite equal budget.
            rows = np.flatnonzero(feasible)
            parts.append((optimal[rows], _equal_budget(*equal_rows, rows, required), rows.size))
        return parts
    if curve.kind == "outage":
        return _outage_counts(curve, s, gamma, sigma_sq)
    rows, mse = _policy_rows(curve.policy, s, gamma, sigma_sq)
    values = np.array([mse(p, *rows) for p in curve.points])
    return [(row[ok], int(ok.sum())) for row, ok in zip(values, np.isfinite(values))]


def _curve_sums(blocks: Sequence[tuple]) -> tuple:
    """One point's partial sums over a chunk from its ``_curve_rows`` part in each block.

    Counts add up; per-row values are joined in trial order and summed once,
    as one array over the whole chunk, so no float sum depends on the block size.
    """
    return tuple(float(np.concatenate(parts).sum()) if isinstance(parts[0], np.ndarray)
                 else sum(parts) for parts in zip(*blocks))


def _block_rows(k: int) -> int:
    """Trials per block: the largest power of two whose trials x K stay within _BLOCK_VALUES."""
    return 1 << (max(_BLOCK_VALUES // k, 1).bit_length() - 1)


def _sweep_chunk(task) -> list:
    """Every curve of one (K, chunk) task, sampled and evaluated one block of trials at a time."""
    model, curves, seed, start, n = task
    k, sigma_sq = curves[0].k, model.prior.variance_theta
    step, blocks = _block_rows(k), []
    for offset in range(0, n, step):
        s, gamma = sample_batch(model, k, seed, start + offset, min(step, n - offset))
        blocks.append([_curve_rows(curve, s, gamma, sigma_sq) for curve in curves])
    return [[_curve_sums(point) for point in zip(*curve)] for curve in zip(*blocks)]


def _summarize(curve: Curve, trials: int, sums: list):
    if curve.kind == "outage":
        return OutageEstimate(count=sums[0], trials=trials)
    if curve.kind == "active":
        return sums[0] / (trials * curve.k)
    if curve.kind == "distortion":
        total, finite = sums
        return AverageDistortion(total / finite if finite else math.nan, trials - finite, trials)
    sum_opt, sum_eq, feasible = sums
    if feasible == 0:
        return MinPowerSummary(math.nan, math.nan, trials, trials)
    return MinPowerSummary(sum_opt / feasible, sum_eq / feasible, trials - feasible, trials)


def estimate_sweep(
    model: NetworkModel, curves: Sequence[Curve], trials: int, seed: int, *, workers: int = 1
) -> list[list]:
    """Every point of every curve from one pass over the trial chunks.

    Each (K, chunk) task samples its trials once and evaluates all curves of
    that K at all their points.  Per-point partial sums are reduced in chunk
    order, so each result equals a one-point call's at any ``workers``.  More
    than one task and worker start one pool of min(workers, tasks) processes.
    Returns per curve one result per point (OutageEstimate, AverageDistortion,
    active fraction or MinPowerSummary, by kind).  A Curve checks itself when
    built; ``trials``, ``seed`` and ``workers`` are checked here, before any trial.
    """
    trials, workers = _check_int("trials", trials, 1), _check_int("workers", workers, 1)
    seed = _check_int("seed", seed, 0, _MAX_SEED)
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
    :func:`fadefusion.channel.mean_merit`.  Divides mantissas and exponents
    apart: inf past the float range; ValueError where E[eta] underflows to 0.
    """
    p_tot, merit = _check_positive("p_tot", p_tot), mean_merit(model, k)
    if merit == 0:
        raise ValueError("the expected merit underflows to 0")
    (num, e_num), (p, e_p), (m, e_m) = map(math.frexp, (model.prior.variance_theta, p_tot, merit))
    with np.errstate(over="ignore"):
        return float(np.ldexp(num / (p * m), e_num - e_p - e_m))


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
        _check_positive("a", self.a)
        if (self.mean_b is None) == (self.samples is None):
            raise ValueError("provide exactly one of mean_b or samples")
        if self.mean_b is not None:
            _check_positive("mean_b", self.mean_b)
        if self.samples is not None:
            samples = np.asarray(self.samples, dtype=float)
            if samples.size < 2 or not np.isfinite(samples).all():
                raise ValueError("need at least two samples, all finite")
            object.__setattr__(self, "samples", samples)


#: Tolerance on the maximizer of rate_function_numeric, relative to the width of its bracket.
_THETA_TOL = 1e-12
#: DivergentMGF's message when rate_function_numeric finds no interior maximizer.
_NO_MAXIMIZER = "supremum attained at the MGF domain boundary: the slope keeps its sign"


def rate_function_exponential(a: float, mean_b: float) -> float:
    """Closed-form rate function of an exponential distribution with mean ``mean_b``."""
    ratio = _check_positive("a", a) / _check_positive("mean_b", mean_b)
    return ratio - math.log(ratio) - 1.0


def rate_function_numeric(query: RateFunctionQuery, *, full_output: bool = False):
    """Rate function I(a) = sup over theta of -log E[exp(theta (X - a))], without cancellation.

    For samples the maximand is log n - logsumexp(theta (x - a)), for the exponential
    theta*a + log1p(-b theta).  It is concave and 0 at theta = 0, so the search steps from 0
    toward the maximizer in t = theta * scale (b, or the largest |x - a|: no step depends on
    the units of X), halving t's distance to the exponential's domain edge t = 1 down to 2^-53,
    or else doubling t from 1 up to 2^1022.  The first sign change of the slope and the
    point before it bracket the root, which brentq finds to ``_THETA_TOL`` of the bracket.
    Raises DivergentMGF if the slope keeps its sign or turns NaN: the supremum lies at the
    domain edge or diverges (samples with ``a`` outside the open sample range; a/b >= 2^53).
    """
    from scipy.optimize import brentq
    from scipy.special import logsumexp

    if query.mean_b is not None:
        scale, ratio, half = query.mean_b, query.a / query.mean_b, 1.0

        def slope(t: float) -> float:
            return ratio - 1.0 / (1.0 - t)

        def maximand(t: float) -> float:
            return t * ratio + math.log1p(-t)

    else:
        with np.errstate(over="ignore"):  # theta = t / (half * scale): y holds (x - a) / half
            half = 1.0 if np.isfinite(query.samples - query.a).all() else 2.0
        y = query.samples / half - query.a / half  # x/2 - a/2 is exact where x - a overflows
        if not y.min() < 0 < y.max():  # a outside the open sample range: the slope keeps its sign
            raise DivergentMGF(_NO_MAXIMIZER)
        scale = float(np.abs(y).max())  # > 0 here; the mean |x - a| can underflow to 0
        y /= scale

        def slope(t: float) -> float:
            w = t * y
            w = np.exp(w - w.max(), out=w)
            return -float(y @ w / w.sum())

        def maximand(t: float) -> float:
            return math.log(y.size) - float(logsumexp(t * y))

    direction = np.sign(slope(0.0))
    if direction == 0:  # a is the mean
        return (0.0, 0.0) if full_output else 0.0
    halving = query.mean_b is not None and direction > 0
    lo = 0.0
    for k in range(1, 54 if halving else 1024):  # t y - max(t y) overflows at 2^1023
        hi = 1.0 - 2.0**-k if halving else math.copysign(2.0 ** (k - 1), direction)
        if slope(hi) * direction < 0:
            break
        lo = hi
    else:
        raise DivergentMGF(_NO_MAXIMIZER)

    t = brentq(slope, lo, hi, xtol=_THETA_TOL * abs(hi - lo))
    value = max(maximand(t), 0.0)
    return (value, t / scale / half) if full_output else value


def chernoff_bound(k: int, rate_value: float) -> float:
    """Upper bound exp(-K * I) on the tail probability of a K-sample mean."""
    k = _check_int("k", k, 1)
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
    _check_positive("p_tot", p_tot)
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
