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
  powers under the distortion target (Newton on the dual multiplier).

``numeric_reference_allocation`` solves the first two problems by
projected gradient descent and exists purely as an independent correctness
oracle for tests.

Each closed-form problem has one row path, the public solver, and one batch
path for Monte Carlo chunks (the ``*_batch`` kernels), and every threshold
scan cuts through ``_prefix_cut``.  The row solvers stay separate from the
batch kernels because they are the kernels' independent test reference.

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
    multiplier (threshold**-2 resp. threshold**2).
    """

    active_count: int
    threshold_constant: float
    dual_value: float


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
# Row scans: sum-power waterfilling and minimum power under a target
# ---------------------------------------------------------------------------


def _check_budget(snapshot: Snapshot, total_power: float) -> None:
    if not (total_power > 0 and math.isfinite(total_power)):
        raise ValueError("total_power must be positive and finite")
    _require_finite_gamma(snapshot)
    if not snapshot.eta.any():
        raise NoUsableSensor("all channel merits are zero")


def _rank_row(gamma: np.ndarray, eta: np.ndarray):
    """One snapshot ranked by descending merit, cut to its usable sensors.

    Returns (order, gamma_u, eta_u, sqrt_eta, a) with a = cumsum(gamma/sqrt(eta)).
    """
    order = np.argsort(-eta, kind="stable")
    eta_r = eta[order]
    usable = int(np.count_nonzero(eta_r > 0))
    gamma_u = gamma[order[:usable]]
    eta_u = eta_r[:usable]
    sqrt_eta = np.sqrt(eta_u)
    return order, gamma_u, eta_u, sqrt_eta, np.add.accumulate(gamma_u / sqrt_eta)


def _alpha_on_prefix(gamma, s, eta, order, k1: int, threshold) -> np.ndarray:
    """Budgets (gamma/s)(threshold*sqrt(eta) - 1)+ on the first k1 ranked sensors, 0 elsewhere."""
    alpha = np.zeros_like(eta)
    active = order[:k1]
    alpha[active] = gamma[active] / s[active] * np.maximum(threshold * np.sqrt(eta[active]) - 1.0, 0.0)
    return alpha


def _waterfill_row(
    gamma: np.ndarray, s: np.ndarray, eta: np.ndarray, total_power: float
) -> tuple[np.ndarray, float]:
    """Closed-form optimal budgets for one snapshot given as arrays.

    Returns (alpha_prime, threshold) where ``threshold`` is the constant c
    such that sensor k is active iff c * sqrt(eta_k) > 1.
    """
    order, gamma_u, eta_u, sqrt_eta, a = _rank_row(gamma, eta)
    b = np.add.accumulate(gamma_u / eta_u) + total_power  # np.cumsum without its call overhead
    k1 = int(_prefix_cut((sqrt_eta * b / a - 1.0)[None, :], "sum-power")[0])
    if k1 == 0:
        raise InternalConsistencyError("sum-power budget is below the closed form's resolution")
    c0 = b[k1 - 1] / a[k1 - 1]
    return _alpha_on_prefix(gamma, s, eta, order, k1, c0), float(c0)


def max_performance_allocation(
    snapshot: Snapshot, total_power: float
) -> tuple[Allocation, AllocationDiagnostics]:
    """Distortion-minimizing budgets under the sum transmit-power constraint.

    The budget constraint is tight: the returned transmit powers sum to
    ``total_power``.  Sensors whose merit falls below 1/threshold**2 are
    shut off entirely.
    """
    _check_budget(snapshot, total_power)
    alpha, c0 = _waterfill_row(snapshot.gamma, snapshot.s, snapshot.eta, total_power)
    diagnostics = AllocationDiagnostics(
        active_count=int(np.count_nonzero(alpha > 0)),
        threshold_constant=c0,
        dual_value=c0**-2,
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
    the sum constraint is left slack at sum(caps).  ``capped_mse_batch`` is
    the masked batch form of this loop and is tested against it.
    """
    _check_budget(snapshot, total_power)
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
        sub_alpha, c0 = _waterfill_row(gamma[idx], s[idx], eta[idx], budget)
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

    order, gamma_u, _, sqrt_eta, c = _rank_row(snapshot.gamma, snapshot.eta)
    margin, *_, prefix_gamma = _min_power_scan(1.0 / sqrt_eta[None, :], gamma_u[None, :], required)
    d = prefix_gamma[0] - required
    k1 = int(_prefix_cut(margin, "min-power")[0])
    if not d[k1 - 1] > 0:
        raise InternalConsistencyError("min-power cutoff landed on a non-positive divisor")
    rho0 = float(c[k1 - 1] / d[k1 - 1])
    alpha = _alpha_on_prefix(snapshot.gamma, snapshot.s, snapshot.eta, order, k1, rho0)

    diagnostics = AllocationDiagnostics(
        active_count=int(np.count_nonzero(alpha > 0)),
        threshold_constant=rho0,
        dual_value=rho0**2,
    )
    return Allocation(tuple(alpha)), diagnostics


#: Steps any one monotone Newton iteration may take before it counts as stalled; gamma over
#: 1e-2..1e4, s over 1e-3..1e6 and targets within 1e-13 of the floor take under 100.
_NEWTON_MAX_STEPS = 1000


def _monotone_newton(x: np.ndarray, newton_step, direction: float, label: str) -> np.ndarray:
    """Newton iterates that move every entry of x one way only, in ``direction``.

    ``newton_step(x[live], live)`` returns the next iterates of the live
    entries.  An entry stops, keeping its last value, once its step no
    longer moves it in ``direction``.
    """
    live = np.arange(x.size)
    for _ in range(_NEWTON_MAX_STEPS):
        new = newton_step(x[live], live)
        moves = (new - x[live]) * direction > 0
        live = live[moves]
        x[live] = new[moves]
        if live.size == 0:
            return x
    raise ConvergenceFailure(f"{label} Newton iteration did not converge")


def l2_min_power_allocation(snapshot: Snapshot, distortion_target: float) -> Allocation:
    """Budgets minimizing the sum of squared transmit powers at the target.

    A fairness compromise: squares penalize outlier sensors, so the power is
    spread more evenly than the plain minimum-sum solution at the cost of a
    larger total.  With u = r/gamma a sensor's share of its fused-SNR ceiling
    and v = 1 - u, stationarity at dual multiplier lam is the convex
    increasing cubic w v^3 + v - 1 = 0, w = lam eta^2 / (2 gamma), solved by
    Newton from above.  The fused total is concave and increasing in lam, so
    Newton from lam = 0 rises to the target.  Every usable sensor ends up
    active: the marginal squared-power cost vanishes at zero budget.
    """
    _require_finite_gamma(snapshot)
    required = _check_target(snapshot, distortion_target)

    usable = snapshot.eta > 0
    gamma_u = snapshot.gamma[usable]
    half_eta_sq = snapshot.eta[usable] ** 2 / 2.0

    def cubic_root(lam: float) -> np.ndarray:
        w = lam * half_eta_sq / gamma_u
        return _monotone_newton(  # w^(-1/3) is at or above the root
            1.0 / np.maximum(np.cbrt(w), 1.0),
            lambda v, live: v - (w[live] * v**3 + v - 1.0) / (3.0 * w[live] * v**2 + 1.0),
            -1.0,
            "squared-power stationarity",
        )

    # u = w v^3 at the root, so the fused total sum(gamma u) = lam sum(eta^2 v^3 / 2) and the
    # budgets gamma u / (s v) = lam eta^2 v^2 / (2 s) take no difference of 1 and v.
    def dual_step(lam: np.ndarray, _) -> np.ndarray:
        v = cubic_root(float(lam[0]))
        slope = half_eta_sq @ (v**4 / (3.0 - 2.0 * v))  # du/dw = v^4 / (3 - 2v)
        return lam + (required - lam * (half_eta_sq @ v**3)) / slope

    lam = float(_monotone_newton(np.zeros(1), dual_step, 1.0, "squared-power dual")[0])
    alpha = np.zeros(snapshot.k)
    alpha[usable] = lam * half_eta_sq * cubic_root(lam) ** 2 / snapshot.s[usable]
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


#: Relative objective decrease below which a projected-gradient step counts as small.
_REF_STEP_TOL = 1e-12
#: Iteration budget of the projected-gradient reference solver.
_REF_MAX_ITER = 50_000


def numeric_reference_allocation(
    snapshot: Snapshot, total_power: float, caps: Optional[CapVector] = None
) -> Allocation:
    """Sum-power (optionally capped) optimum via projected gradient descent.

    Independent of the closed forms: spectral (Barzilai-Borwein) step sizes
    with Armijo backtracking on the projected path, stopping once the
    relative objective decrease stays below ``_REF_STEP_TOL`` for five
    steps.  Used only as a test oracle; prefer the closed-form solvers
    everywhere else.
    """
    _check_budget(snapshot, total_power)
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

    for _ in range(_REF_MAX_ITER):
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
        small_decreases = small_decreases + 1 if decrease < _REF_STEP_TOL * max(1.0, abs(fx)) else 0
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


def _prefix_cut(margin: np.ndarray, label: str) -> np.ndarray:
    """Per-row cutoff of a ranked threshold scan: its leading run of positive margins.

    A positive margin after the run is a near-tie rounded the wrong way when
    <= 1e-12 and breaks the unique-cutoff property above.
    """
    positive = margin > 0
    k1 = positive.sum(axis=1)
    broken = positive[:, 1:] > positive[:, :-1]  # a positive margin after a non-positive one
    if broken.any():
        rows = np.flatnonzero(broken.any(axis=1))
        k1[rows] = np.argmin(positive[rows], axis=1)
        after = np.arange(margin.shape[1]) >= k1[rows, None]
        if (np.where(after, margin[rows], 0.0) > 1e-12).any():
            raise InternalConsistencyError(
                f"{label} threshold scan is not a prefix; the unique-cutoff property failed"
            )
    return k1


def _min_power_scan(u, gamma_r, required):
    """Min-power scan over ranked rows: sensor m is active iff required*u_m > L_m.

    u = 1/sqrt(eta) and L_m = sum_{j<m} gamma_j (u_m - u_j) sums non-negative steps, so
    no gamma cancels against itself (1 - d/(sqrt(eta)*c) loses every digit next to a
    gamma above ~1e16).  ``u`` and ``gamma_r`` are 0 on unusable sensors.  Returns the
    margins 1 - L/(required*u), diff(u), L and cumsum(gamma).
    """
    prefix_gamma = np.add.accumulate(gamma_r, axis=1)
    du = u[:, 1:] - u[:, :-1]
    lead = np.zeros(u.shape)
    np.add.accumulate(prefix_gamma[:, :-1] * du, axis=1, out=lead[:, 1:])
    return 1.0 - lead / (required * u), du, lead, prefix_gamma


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
    """Optimal distortion, cutoff index and threshold constant per row.

    ``total_power`` is one budget for every row or an array of one per row.
    Rows with no usable sensor get mse = +inf, k1 = 0 and c0 = nan.
    """
    margin = w + np.asarray(total_power)[..., None]  # becomes sqrt(eta) * b / a - 1, b = w + P
    margin *= sqrt_eta
    with np.errstate(divide="ignore", invalid="ignore"):
        margin /= a
    margin -= 1.0
    k1 = _prefix_cut(margin, "sum-power")
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
    inv_gamma = 1.0 / gamma
    denom = gamma.shape[1] * (1.0 + inv_gamma)
    budgets = np.atleast_1d(total_power)
    mse = np.empty((budgets.size, gamma.shape[0]))
    for j, budget in enumerate(budgets):
        mse[j] = _mse_from_total(_equal_total(s, inv_gamma, denom, budget), sigma_theta_sq)
    return mse[0] if np.ndim(total_power) == 0 else mse


def _equal_total(s, inv_gamma, denom, budget) -> np.ndarray:
    """Fused SNR total per row under the equal split, denom = K (1 + 1/gamma).

    ``budget`` is one total budget for every row or a (rows, 1) column of one per row.
    """
    ps = budget * s
    return np.sum(ps / (inv_gamma * ps + denom), axis=1)


def _equal_budget_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, d0: float
) -> np.ndarray:
    """Smallest uniform budget meeting the target per row; +inf at or below the row's floor.

    The fused SNR total f(P) is increasing and concave with f(0) = 0, so
    Newton steps from P = 0 stay below the root and rise to it.
    """
    required = sigma_theta_sq / d0
    feasible = np.where(s > 0, gamma, 0.0).sum(axis=1) > required
    s = s[feasible]
    inv_gamma = 1.0 / gamma[feasible]
    denom = gamma.shape[1] * (1.0 + inv_gamma)

    def newton_step(budget: np.ndarray, live: np.ndarray) -> np.ndarray:
        s_l, inv_gamma_l, denom_l, column = s[live], inv_gamma[live], denom[live], budget[:, None]
        slope = np.sum(s_l * denom_l / (inv_gamma_l * (column * s_l) + denom_l) ** 2, axis=1)
        return budget + (required - _equal_total(s_l, inv_gamma_l, denom_l, column)) / slope

    budget = np.full(gamma.shape[0], np.inf)
    budget[feasible] = _monotone_newton(np.zeros(s.shape[0]), newton_step, 1.0, "equal-power budget")
    return budget


def min_power_total_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, distortion_target: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum total power per row of a (trials, K) batch, at the given target.

    Returns (total_power, active_count, feasible); infeasible rows (target at
    or below the row's floor) carry total_power = +inf.
    """
    required = sigma_theta_sq / distortion_target
    eta_r, gamma_r, usable, _ = _rank_batch(gamma, s)
    g = np.where(usable, gamma_r, 0.0)
    feasible = g.sum(axis=1) > required
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(usable, 1.0 / np.sqrt(eta_r), 0.0)
        margin, du, lead, prefix_gamma = _min_power_scan(u, g, required)
    k1 = _prefix_cut(np.where(usable & feasible[:, None], margin, -1.0), "min-power")
    d = prefix_gamma[np.arange(g.shape[0]), np.maximum(k1 - 1, 0)] - required
    if (feasible & ~(d > 0)).any():
        raise InternalConsistencyError("min-power cutoff landed on a non-positive divisor")
    # P_k = gamma_k u_k (required u_k - L_k + R_k) / d on the active prefix, R_k = sum_{k<j<=k1}
    # gamma_j (u_j - u_k) summed like L; rho0*c - w loses every digit next to a huge gamma.
    g[np.arange(g.shape[1]) >= k1[:, None]] = 0.0
    steps = np.cumsum(g[:, :0:-1], axis=1)[:, ::-1] * du  # (gamma over active j > i)(u_{i+1} - u_i)
    trail = np.pad(np.cumsum(steps[:, ::-1], axis=1)[:, ::-1], ((0, 0), (0, 1)))
    total = np.sum(g * u * (required * u - lead + trail), axis=1)
    total = np.where(feasible, total / np.where(feasible, d, 1.0), np.inf)
    return total, np.where(feasible, k1, 0), feasible


def capped_mse_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, total_power: float, cap_power: float
) -> np.ndarray:
    """Capped-allocation distortion for a (trials, K) batch, one transmit cap for all sensors.

    The masked batch form of the clipping loop in max_performance_with_caps.
    Each pass re-waterfills the unfinished rows with their clipped sensors at
    zero merit, clips every violator to its cap and takes cap_power per
    clipped sensor off that row's budget.  A row finishes when a pass clips
    nothing or its budget is spent.  Rows that clip nothing in the first pass
    keep its closed-form distortion; clipped rows sum the per-sensor
    contributions.  +inf marks rows with no usable sensor.
    """
    n, k = gamma.shape
    limits = cap_power / (1.0 + 1.0 / gamma)
    alpha = np.zeros((n, k))
    free = np.ones((n, k), dtype=bool)
    budget = np.full(n, float(total_power))
    budget_dust = total_power * 1e-14  # clipping can leave rounding residue
    rows = np.arange(n)
    for step in range(k + 1):
        s_free = np.where(free[rows], s[rows], 0.0)
        eta_r, gamma_r, usable, order = _rank_batch(gamma[rows], s_free)
        sqrt_eta, *sums = _waterfill_prefix(eta_r, gamma_r, usable)
        pass_mse, k1, c0 = _waterfill_mse(sqrt_eta, *sums, budget[rows], sigma_theta_sq)
        s_r = np.take_along_axis(s_free, order, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha_r = gamma_r / s_r * np.maximum(c0[:, None] * sqrt_eta - 1.0, 0.0)
        alpha_r[np.arange(k) >= k1[:, None]] = 0.0
        violated_r = alpha_r >= cap_power / (1.0 + 1.0 / gamma_r)
        clips = violated_r.any(axis=1)
        if step == 0:
            mse = pass_mse
        else:
            done = ~clips
            finished = np.zeros((int(done.sum()), k))
            np.put_along_axis(finished, order[done], alpha_r[done], axis=1)
            alpha[rows[done]] += finished  # clipped sensors hold their caps, the rest 0

        rows, order, violated_r = rows[clips], order[clips], violated_r[clips]
        violated = np.zeros((rows.size, k), dtype=bool)
        np.put_along_axis(violated, order, violated_r, axis=1)
        alpha[rows] = np.where(violated, limits[rows], alpha[rows])
        free[rows] &= ~violated
        budget[rows] = np.maximum(budget[rows] - cap_power * violated_r.sum(axis=1), 0.0)
        rows = rows[budget[rows] > budget_dust]
        if rows.size == 0:
            break
    else:
        raise InternalConsistencyError("cap-clipping loop failed to terminate in K passes")

    hit = np.flatnonzero(~free.all(axis=1))
    x = alpha[hit] * s[hit]
    mse[hit] = _mse_from_total(np.sum(x / (x / gamma[hit] + 1.0), axis=1), sigma_theta_sq)
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
    "sum_power_mse_batch",
    "equal_power_mse_batch",
    "min_power_total_batch",
    "capped_mse_batch",
]
