"""Sensor transmit-power allocation solvers.

Four solvers share one structure: rank sensors by the merit
eta = s / (1 + 1/gamma), keep a prefix of the ranking active, and set each
active sensor's budget from a single threshold constant fixed by the
binding constraint.

* ``max_performance_allocation`` -- minimize distortion under a sum power
  budget (closed form from the KKT system).
* ``max_performance_with_caps`` -- same objective with per-sensor transmit
  caps, solved by iteratively clipping violators to their caps.
* ``min_power_allocation`` -- minimize total power under a distortion
  target (closed form; the constraint is tight at the optimum).
* ``l2_min_power_allocation`` -- minimize the sum of squared transmit
  powers under the distortion target (numeric dual search).

``numeric_reference_allocation`` solves the first two problems by
projected gradient descent and exists purely as an independent correctness
oracle for tests.

All solvers require finite observation SNRs: a noiseless sensor has
constant (non-diminishing) marginal returns, so the threshold structure
degenerates.  Zero-merit sensors (dead channels) are excluded from ranking
arithmetic; they can never be active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceFailure,
    InfeasibleTarget,
    InternalConsistencyError,
    NoUsableSensor,
)
from .model import Allocation, Snapshot, distortion_floor


@dataclass(frozen=True)
class RankedView:
    """Sensor indices ordered by descending merit, ties broken by original index."""

    order: tuple[int, ...]
    merits: tuple[float, ...]
    usable: int  # leading entries with merit > 0; only these can receive power

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must be a permutation of 0..K-1")


@dataclass(frozen=True)
class AllocationDiagnostics:
    """Solver byproducts: active-set size, threshold constant and dual value.

    ``threshold_constant`` is the budget-determined constant for the
    max-performance problem and the target-determined constant for the
    min-power problem; ``dual_value`` is the corresponding Lagrange
    multiplier (threshold**-2 resp. threshold**2).  ``slack_multipliers``
    carries the per-sensor complementarity multipliers when the solver
    computes them; they exist for KKT certificate tests only.
    """

    active_count: int
    threshold_constant: float
    dual_value: float
    slack_multipliers: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class CapVector:
    """Per-sensor maximum transmit powers; ``math.inf`` marks an unbounded sensor."""

    caps: tuple[float, ...]

    def __post_init__(self):
        caps = tuple(float(c) for c in self.caps)
        if any(math.isnan(c) or c <= 0 for c in caps):
            raise ValueError("every cap must be > 0 (use math.inf for unbounded)")
        object.__setattr__(self, "caps", caps)

    @classmethod
    def unbounded(cls, k: int) -> "CapVector":
        return cls((math.inf,) * k)

    @classmethod
    def uniform(cls, k: int, cap: float) -> "CapVector":
        return cls((cap,) * k)

    def alpha_limits(self, snapshot: Snapshot) -> np.ndarray:
        """Budget-space caps C_k = P_k^max / (1 + 1/gamma_k)."""
        if len(self.caps) != snapshot.k:
            raise ValueError("cap vector length does not match K")
        return np.array(self.caps) / (1.0 + snapshot.inv_gamma)


def rank_sensors(snapshot: Snapshot) -> RankedView:
    """Rank sensors by descending merit; ties keep ascending original index."""
    eta = snapshot.eta
    order = np.argsort(-eta, kind="stable")
    merits = eta[order]
    return RankedView(
        order=tuple(int(i) for i in order),
        merits=tuple(float(m) for m in merits),
        usable=int(np.count_nonzero(merits > 0)),
    )


def _require_finite_gamma(snapshot: Snapshot) -> None:
    if np.isinf(snapshot.gamma).any():
        raise ValueError(
            "allocation solvers require finite observation SNRs; "
            "a noiseless sensor has no interior optimum"
        )


# ---------------------------------------------------------------------------
# Sum-power problem: closed-form waterfilling core
# ---------------------------------------------------------------------------


def _leading_true_run(positive: np.ndarray, usable: int, label: str) -> int:
    """Length of the leading True run; verifies the positives form exactly a prefix."""
    head = positive[:usable]
    k1 = usable if head.all() else int(np.argmin(head))
    if k1 == 0 or head[k1:].any():
        raise InternalConsistencyError(
            f"{label} threshold scan is not a prefix; the unique-cutoff property failed"
        )
    return k1


def _waterfill_row(
    gamma: np.ndarray, s: np.ndarray, eta: np.ndarray, total_power: float
) -> tuple[np.ndarray, int, float]:
    """Closed-form optimal budgets for one snapshot given as arrays.

    Returns (alpha_prime, active_count, threshold) where ``threshold`` is the
    constant c such that sensor k is active iff c * sqrt(eta_k) > 1.
    """
    order = np.argsort(-eta, kind="stable")
    eta_r = eta[order]
    usable = int(np.count_nonzero(eta_r > 0))
    if usable == 0:
        raise NoUsableSensor("all channel merits are zero")

    gamma_u = gamma[order[:usable]]
    eta_u = eta_r[:usable]
    sqrt_eta = np.sqrt(eta_u)
    a = np.cumsum(gamma_u / sqrt_eta)
    b = np.cumsum(gamma_u / eta_u) + total_power
    k1 = _leading_true_run(sqrt_eta * b / a - 1.0 > 0, usable, "sum-power")
    c0 = b[k1 - 1] / a[k1 - 1]

    alpha = np.zeros_like(eta)
    active = order[:k1]
    alpha[active] = gamma[active] / s[active] * np.maximum(c0 * np.sqrt(eta[active]) - 1.0, 0.0)
    return alpha, k1, float(c0)


def max_performance_allocation(
    snapshot: Snapshot, total_power: float
) -> tuple[Allocation, AllocationDiagnostics]:
    """Distortion-minimizing budgets under the sum transmit-power constraint.

    The budget constraint is tight: the returned transmit powers sum to
    ``total_power``.  Sensors whose merit falls below 1/threshold**2 are
    shut off entirely.
    """
    if not (total_power > 0 and math.isfinite(total_power)):
        raise ValueError("total_power must be positive and finite")
    _require_finite_gamma(snapshot)

    alpha, _, c0 = _waterfill_row(snapshot.gamma, snapshot.s, snapshot.eta, total_power)
    dual = c0**-2

    # Complementarity multipliers: zero on the active set, the stationarity
    # surplus at alpha'=0 elsewhere.  Exposed for certificate tests.
    with np.errstate(divide="ignore"):
        x = alpha * snapshot.s
        slack = dual * (1.0 + snapshot.inv_gamma) - snapshot.s / (snapshot.inv_gamma * x + 1.0) ** 2
    slack = np.where(alpha > 0, 0.0, np.maximum(slack, 0.0))

    diagnostics = AllocationDiagnostics(
        active_count=int(np.count_nonzero(alpha > 0)),
        threshold_constant=c0,
        dual_value=dual,
        slack_multipliers=tuple(float(m) for m in slack),
    )
    return Allocation(tuple(alpha)), diagnostics


def max_performance_with_caps(
    snapshot: Snapshot, total_power: float, caps: CapVector
) -> tuple[Allocation, AllocationDiagnostics]:
    """Distortion-minimizing budgets under sum power plus per-sensor caps.

    Iterates: solve without caps, clip every violator to its cap, remove the
    clipped sensors and their power from the problem, repeat.  Terminates in
    at most K passes since each pass removes at least one sensor.  If the
    caps together cannot absorb the budget, everything ends up clipped and
    the sum constraint is left slack at sum(caps).
    """
    if not (total_power > 0 and math.isfinite(total_power)):
        raise ValueError("total_power must be positive and finite")
    _require_finite_gamma(snapshot)
    if not np.count_nonzero(snapshot.eta > 0):
        raise NoUsableSensor("all channel merits are zero")

    k = snapshot.k
    limits = caps.alpha_limits(snapshot)
    cap_power = np.array(caps.caps)
    gamma, s, eta = snapshot.gamma, snapshot.s, snapshot.eta

    alpha = np.zeros(k)
    free = np.ones(k, dtype=bool)
    budget = float(total_power)
    budget_dust = total_power * 1e-14  # clipping can leave rounding residue
    threshold = math.nan

    for _ in range(k + 1):
        idx = np.flatnonzero(free)
        if idx.size == 0 or budget <= budget_dust or not (eta[idx] > 0).any():
            break
        sub_alpha, _, c0 = _waterfill_row(gamma[idx], s[idx], eta[idx], budget)
        violated = sub_alpha >= limits[idx]
        if not violated.any():
            alpha[idx] = sub_alpha
            threshold = c0
            break
        clipped = idx[violated]
        alpha[clipped] = limits[clipped]
        budget = max(budget - float(np.sum(cap_power[clipped])), 0.0)
        free[clipped] = False
    else:
        raise InternalConsistencyError("cap-clipping loop failed to terminate in K passes")

    diagnostics = AllocationDiagnostics(
        active_count=int(np.count_nonzero(alpha > 0)),
        threshold_constant=threshold,
        dual_value=threshold**-2 if math.isfinite(threshold) else math.nan,
    )
    return Allocation(tuple(alpha)), diagnostics


# ---------------------------------------------------------------------------
# Minimum-power problem under a distortion target
# ---------------------------------------------------------------------------


def _check_target(snapshot: Snapshot, distortion_target: float) -> float:
    """Validate strict feasibility and return the required fused SNR total."""
    if not (distortion_target > 0 and math.isfinite(distortion_target)):
        raise ValueError("distortion_target must be positive and finite")
    floor = distortion_floor(snapshot)
    if distortion_target <= floor:
        raise InfeasibleTarget(distortion_target, floor)
    return snapshot.prior.variance_theta / distortion_target


def min_power_allocation(
    snapshot: Snapshot, distortion_target: float
) -> tuple[Allocation, AllocationDiagnostics]:
    """Cheapest budgets that achieve the distortion target exactly.

    Strict feasibility requires the target to lie above the snapshot's
    distortion floor (each sensor's fused-SNR contribution is capped at its
    gamma).  Active sensors receive
    ``alpha' = (gamma/s)(threshold * sqrt(eta) - 1)``, which is the form the
    threshold scan and the dual multiplier are consistent with; the achieved
    distortion equals the target.
    """
    _require_finite_gamma(snapshot)
    required = _check_target(snapshot, distortion_target)

    gamma, s, eta = snapshot.gamma, snapshot.s, snapshot.eta
    order = np.argsort(-eta, kind="stable")
    eta_r = eta[order]
    usable = int(np.count_nonzero(eta_r > 0))
    gamma_u = gamma[order[:usable]]
    eta_u = eta_r[:usable]
    sqrt_eta = np.sqrt(eta_u)
    c = np.cumsum(gamma_u / sqrt_eta)
    d = np.cumsum(gamma_u) - required
    k1 = _leading_true_run(1.0 - d / (sqrt_eta * c) > 0, usable, "min-power")
    if not d[k1 - 1] > 0:
        raise InternalConsistencyError("min-power cutoff landed on a non-positive divisor")
    rho0 = float(c[k1 - 1] / d[k1 - 1])

    alpha = np.zeros_like(eta)
    active = order[:k1]
    alpha[active] = gamma[active] / s[active] * np.maximum(rho0 * np.sqrt(eta[active]) - 1.0, 0.0)

    diagnostics = AllocationDiagnostics(
        active_count=int(np.count_nonzero(alpha > 0)),
        threshold_constant=rho0,
        dual_value=rho0**2,
    )
    return Allocation(tuple(alpha)), diagnostics


def l2_min_power_allocation(
    snapshot: Snapshot,
    distortion_target: float,
    *,
    residual_tol: float = 1e-12,
    max_doublings: int = 400,
) -> Allocation:
    """Budgets minimizing the sum of squared transmit powers at the target.

    A fairness compromise: squares penalize outlier sensors, so the power is
    spread more evenly than the plain minimum-sum solution at the cost of a
    larger total.  Solved by bisection on the dual multiplier; for each
    multiplier the per-sensor stationarity condition is a monotone scalar
    equation solved by bisection as well.  Every usable sensor ends up
    active: the marginal squared-power cost vanishes at zero budget.
    """
    _require_finite_gamma(snapshot)
    required = _check_target(snapshot, distortion_target)

    usable = snapshot.eta > 0
    gamma_u = snapshot.gamma[usable]
    eta_u = snapshot.eta[usable]
    s_u = snapshot.s[usable]

    def fused_fractions(lam: float) -> np.ndarray:
        # Solve u/(1-u)^3 = lam * eta^2 / (2 gamma) per sensor; u = r/gamma.
        w = lam * eta_u**2 / (2.0 * gamma_u)
        lo = np.zeros_like(w)
        hi = np.ones_like(w)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            too_low = mid / (1.0 - mid) ** 3 < w
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        return 0.5 * (lo + hi)

    lam_hi = 1.0
    for _ in range(max_doublings):
        if float(gamma_u @ fused_fractions(lam_hi)) >= required:
            break
        lam_hi *= 2.0
    else:
        raise ConvergenceFailure("dual bracket for the squared-power problem did not close")

    lam_lo = 0.0
    tol = residual_tol * max(1.0, required)
    u = fused_fractions(lam_hi)
    for _ in range(400):
        lam_mid = 0.5 * (lam_lo + lam_hi)
        if lam_mid == lam_lo or lam_mid == lam_hi:
            break
        u = fused_fractions(lam_mid)
        residual = float(gamma_u @ u) - required
        if abs(residual) <= tol:
            break
        if residual < 0:
            lam_lo = lam_mid
        else:
            lam_hi = lam_mid
    else:
        raise ConvergenceFailure("dual bisection for the squared-power problem stalled")

    alpha = np.zeros(snapshot.k)
    alpha[usable] = gamma_u * u / (s_u * (1.0 - u))
    return Allocation(tuple(alpha))


# ---------------------------------------------------------------------------
# Numeric reference solver (test oracle)
# ---------------------------------------------------------------------------


def _project_budget_box(
    x: np.ndarray, weights: np.ndarray, upper: np.ndarray, budget: float
) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= upper, weights . a <= budget}."""
    clipped = np.clip(x, 0.0, upper)
    if float(weights @ clipped) <= budget:
        return clipped
    lo, hi = 0.0, float(np.max(x / weights)) + 1.0
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        value = float(weights @ np.clip(x - tau * weights, 0.0, upper))
        if value > budget:
            lo = tau
        else:
            hi = tau
    return np.clip(x - hi * weights, 0.0, upper)


def numeric_reference_allocation(
    snapshot: Snapshot,
    total_power: float,
    caps: Optional[CapVector] = None,
    *,
    step_tol: float = 1e-12,
    max_iter: int = 50_000,
) -> Allocation:
    """Sum-power (optionally capped) optimum via projected gradient descent.

    Independent of the closed forms: spectral (Barzilai-Borwein) step sizes
    with Armijo backtracking on the projected path, stopping once the
    objective decrease stays below ``step_tol`` per step.  Used only as a
    test oracle; prefer the closed-form solvers everywhere else.
    """
    if not (total_power > 0 and math.isfinite(total_power)):
        raise ValueError("total_power must be positive and finite")
    _require_finite_gamma(snapshot)
    if not np.count_nonzero(snapshot.eta > 0):
        raise NoUsableSensor("all channel merits are zero")

    s = snapshot.s
    inv_gamma = snapshot.inv_gamma
    weights = 1.0 + inv_gamma
    upper = caps.alpha_limits(snapshot) if caps is not None else np.full(snapshot.k, np.inf)

    def objective(a: np.ndarray) -> float:
        x = a * s
        return -float(np.sum(x / (inv_gamma * x + 1.0)))

    def gradient(a: np.ndarray) -> np.ndarray:
        return -s / (inv_gamma * a * s + 1.0) ** 2

    x = _project_budget_box(
        np.full(snapshot.k, total_power / snapshot.k) / weights, weights, upper, total_power
    )
    fx = objective(x)
    grad = gradient(x)
    step = 1.0 / max(float(np.max(np.abs(grad))), 1e-300)
    small_decreases = 0

    for _ in range(max_iter):
        direction = _project_budget_box(x - step * grad, weights, upper, total_power) - x
        slope = float(grad @ direction)
        if slope >= 0 or float(np.max(np.abs(direction))) < 1e-300:
            break
        scale = 1.0
        fnew = objective(x + direction)
        while fnew > fx + 1e-4 * scale * slope and scale > 1e-20:
            scale *= 0.5
            fnew = objective(x + scale * direction)
        x_new = x + scale * direction
        grad_new = gradient(x_new)
        dx = x_new - x
        dg = grad_new - grad
        curvature = float(dx @ dg)
        step = float(dx @ dx) / curvature if curvature > 0 else step * 2.0
        step = min(max(step, 1e-300), 1e300)

        decrease = fx - fnew
        x, fx, grad = x_new, fnew, grad_new
        small_decreases = small_decreases + 1 if decrease < step_tol * max(1.0, abs(fx)) else 0
        if small_decreases >= 5:
            break
    else:
        raise ConvergenceFailure("projected gradient reference solver exhausted its budget")

    return Allocation(tuple(x))


# ---------------------------------------------------------------------------
# Batched closed forms for Monte Carlo kernels (arrays of snapshots)
# ---------------------------------------------------------------------------


def _rank_batch(gamma: np.ndarray, s: np.ndarray):
    eta = s / (1.0 + 1.0 / gamma)
    order = np.argsort(-eta, axis=1, kind="stable")
    eta_r = np.take_along_axis(eta, order, axis=1)
    gamma_r = np.take_along_axis(gamma, order, axis=1)
    usable = eta_r > 0
    return eta_r, gamma_r, usable, order


def _prefix_cut(positive: np.ndarray, label: str) -> np.ndarray:
    """Per-row length of the leading True run; verifies prefix structure."""
    k1 = positive.sum(axis=1)
    if (positive != (np.arange(positive.shape[1]) < k1[:, None])).any():
        raise InternalConsistencyError(
            f"{label} threshold scan is not a prefix; the unique-cutoff property failed"
        )
    return k1


def _waterfill_prefix(eta_r, gamma_r, usable):
    """Budget-independent sums over each ranked row's usable sensors.

    Returns sqrt(eta) and the prefix sums a = cumsum(gamma/sqrt(eta)),
    w = cumsum(gamma/eta) and prefix_gamma = cumsum(gamma).
    """
    sqrt_eta = np.sqrt(eta_r)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.cumsum(np.where(usable, gamma_r / sqrt_eta, 0.0), axis=1)
        w = np.cumsum(np.where(usable, gamma_r / eta_r, 0.0), axis=1)
    return sqrt_eta, a, w, np.cumsum(np.where(usable, gamma_r, 0.0), axis=1)


def _waterfill_mse(sqrt_eta, a, w, prefix_gamma, total_power, sigma_theta_sq):
    """Optimal distortion, cutoff index and threshold constant per row at one budget.

    Rows with no usable sensor get mse = +inf, k1 = 0 and c0 = nan.
    """
    ratio = w + total_power  # becomes sqrt(eta) * b / a in place, b = w + P
    ratio *= sqrt_eta
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio /= a
    f_positive = (a > 0) & (ratio > 1.0)
    k1 = _prefix_cut(f_positive, "sum-power")
    at_cut = np.arange(a.shape[0]) * a.shape[1] + np.maximum(k1 - 1, 0)  # flat (row, k1-1)
    a_cut = a.take(at_cut)
    c0 = np.where(k1 > 0, (w.take(at_cut) + total_power) / np.where(a_cut > 0, a_cut, 1.0), np.nan)
    total = np.where(k1 > 0, prefix_gamma.take(at_cut) - a_cut / c0, 0.0)
    return _mse_from_total(total, sigma_theta_sq), k1, c0


def _mse_from_total(total: np.ndarray, sigma_theta_sq: float) -> np.ndarray:
    return np.where(total > 0, sigma_theta_sq / np.where(total > 0, total, 1.0), np.inf)


def sum_power_mse_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, total_power
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal-allocation distortion for a (trials, K) batch of snapshots.

    ``total_power`` is one budget or a 1-D array of budgets; the ranking and
    the budget-independent prefix sums are computed once for all of them.
    Returns (mse, active_count), each of shape (trials,) for one budget and
    (budgets, trials) for an array; rows with no usable sensor get
    mse = +inf and active_count = 0, matching the outage convention.
    """
    prefix = _waterfill_prefix(*_rank_batch(gamma, s)[:3])  # ranked arrays freed here
    budgets = np.atleast_1d(total_power)
    mse = np.empty((budgets.size, gamma.shape[0]))
    active = np.empty(mse.shape, dtype=np.intp)
    for j, budget in enumerate(budgets):
        mse[j], active[j], _ = _waterfill_mse(*prefix, budget, sigma_theta_sq)
    return (mse[0], active[0]) if np.ndim(total_power) == 0 else (mse, active)


def equal_power_mse_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, total_power
) -> np.ndarray:
    """Equal-split distortion for a (trials, K) batch; +inf where undefined.

    ``total_power`` is one budget or a 1-D array, as in sum_power_mse_batch.
    """
    k = gamma.shape[1]
    inv_gamma = 1.0 / gamma
    denom = k * (1.0 + inv_gamma)
    budgets = np.atleast_1d(total_power)
    mse = np.empty((budgets.size, gamma.shape[0]))
    for j, budget in enumerate(budgets):
        ps = budget * s
        mse[j] = _mse_from_total(np.sum(ps / (inv_gamma * ps + denom), axis=1), sigma_theta_sq)
    return mse[0] if np.ndim(total_power) == 0 else mse


def min_power_total_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, distortion_target: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum total power per row of a (trials, K) batch, at the given target.

    Returns (total_power, active_count, feasible); infeasible rows (target at
    or below the row's floor) carry total_power = +inf.
    """
    required = sigma_theta_sq / distortion_target
    eta_r, gamma_r, usable, _ = _rank_batch(gamma, s)
    feasible = np.where(usable, gamma_r, 0.0).sum(axis=1) > required
    sqrt_eta, c, w, prefix_gamma = _waterfill_prefix(eta_r, gamma_r, usable)
    d = prefix_gamma - required
    with np.errstate(divide="ignore", invalid="ignore"):
        g_positive = np.where(usable & (c > 0), 1.0 - d / (sqrt_eta * c), -1.0) > 0
    g_positive &= feasible[:, None]

    k1 = _prefix_cut(g_positive, "min-power")
    rows = np.arange(gamma.shape[0])
    idx = np.maximum(k1 - 1, 0)
    denom = d[rows, idx]
    if (feasible & ((k1 == 0) | (denom <= 0))).any():
        raise InternalConsistencyError("min-power cutoff landed on a non-positive divisor")
    rho0 = np.where(feasible, c[rows, idx] / np.where(denom > 0, denom, 1.0), np.nan)
    # Sum of P_k = rho0 * gamma/sqrt(eta) - gamma/eta over the active prefix.
    total = np.where(feasible, rho0 * c[rows, idx] - w[rows, idx], np.inf)
    return total, np.where(feasible, k1, 0), feasible


def capped_mse_row(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, total_power: float, cap_power: float
) -> float:
    """Distortion under the capped optimal allocation for one array-form snapshot.

    Uniform transmit cap per sensor; +inf when no sensor is usable.
    """
    eta = s / (1.0 + 1.0 / gamma)
    if not (eta > 0).any():
        return math.inf
    limits = cap_power / (1.0 + 1.0 / gamma)
    k = gamma.shape[0]
    alpha = np.zeros(k)
    free = np.ones(k, dtype=bool)
    budget = float(total_power)
    budget_dust = total_power * 1e-14
    for _ in range(k + 1):
        idx = np.flatnonzero(free)
        if idx.size == 0 or budget <= budget_dust or not (eta[idx] > 0).any():
            break
        sub_alpha, _, _ = _waterfill_row(gamma[idx], s[idx], eta[idx], budget)
        violated = sub_alpha >= limits[idx]
        if not violated.any():
            alpha[idx] = sub_alpha
            break
        clipped = idx[violated]
        alpha[clipped] = limits[clipped]
        budget = max(budget - cap_power * clipped.size, 0.0)
        free[clipped] = False
    x = alpha * s
    total = float(np.sum(x / (x / gamma + 1.0)))
    return sigma_theta_sq / total if total > 0 else math.inf


def capped_mse_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, total_power: float, cap_power: float
) -> np.ndarray:
    """Capped-allocation distortion for a (trials, K) batch.

    Rows whose uncapped optimum already respects the caps are finished
    vectorized; only rows with cap violations fall back to the per-row
    clipping loop.
    """
    eta_r, gamma_r, usable, order = _rank_batch(gamma, s)
    sqrt_eta, *sums = _waterfill_prefix(eta_r, gamma_r, usable)
    mse, k1, c0 = _waterfill_mse(sqrt_eta, *sums, total_power, sigma_theta_sq)

    # Uncapped budgets in ranked coordinates, for violation detection only.
    s_r = np.take_along_axis(s, order, axis=1)
    in_prefix = np.arange(gamma.shape[1]) < k1[:, None]
    with np.errstate(invalid="ignore"):
        alpha_r = np.where(
            in_prefix, gamma_r / np.where(s_r > 0, s_r, 1.0) * (c0[:, None] * sqrt_eta - 1.0), 0.0
        )
    limits_r = cap_power / (1.0 + 1.0 / gamma_r)
    violating = (alpha_r >= limits_r).any(axis=1)
    for row in np.flatnonzero(violating):
        mse[row] = capped_mse_row(gamma[row], s[row], sigma_theta_sq, total_power, cap_power)
    return mse


def optimality_certificate(
    snapshot: Snapshot, allocation: Allocation, diagnostics: AllocationDiagnostics
) -> tuple[np.ndarray, np.ndarray]:
    """Stationarity and complementarity residuals of a sum-power solution.

    Returns (stationarity_relative, complementarity_slack): the first is the
    relative mismatch of the active-sensor stationarity equation, the second
    is the margin by which inactive sensors satisfy the threshold inequality
    (negative entries mean a violation).
    """
    s = snapshot.s
    inv_gamma = snapshot.inv_gamma
    alpha = allocation.as_array
    lam = diagnostics.dual_value
    with np.errstate(divide="ignore", invalid="ignore"):
        marginal = np.where(s > 0, 1.0 / s / (inv_gamma * alpha + 1.0 / np.where(s > 0, s, 1.0)) ** 2, 0.0)
    target = lam * (1.0 + inv_gamma)
    active = alpha > 0
    stationarity = np.where(active, np.abs(marginal - target) / target, 0.0)
    complementarity = np.where(active, 0.0, target - marginal)
    return stationarity, complementarity


def feasibility_floor(snapshot: Snapshot) -> float:
    """Distortion floor used in infeasibility reports (alias of the model helper)."""
    return distortion_floor(snapshot)


__all__ = [
    "RankedView",
    "AllocationDiagnostics",
    "CapVector",
    "rank_sensors",
    "max_performance_allocation",
    "max_performance_with_caps",
    "min_power_allocation",
    "l2_min_power_allocation",
    "numeric_reference_allocation",
    "optimality_certificate",
    "feasibility_floor",
    "sum_power_mse_batch",
    "equal_power_mse_batch",
    "min_power_total_batch",
    "capped_mse_row",
    "capped_mse_batch",
]
