"""Shared fixtures-by-hand: random instances and independent oracles."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

import fadefusion as ff
from fadefusion.allocation import _check_budget, _rank_row, _waterfill_row


def random_snapshot(rng: np.random.Generator, k: int | None = None, kmax: int = 8) -> ff.Snapshot:
    """Moderate-condition random instance: gamma in [0.5, 200], s in [0.05, 20]."""
    if k is None:
        k = int(rng.integers(1, kmax + 1))
    gamma = 10 ** rng.uniform(-0.3, 2.3, k)
    s = 10 ** rng.uniform(-1.3, 1.3, k)
    return ff.Snapshot.from_arrays(1.0, gamma, s)


def matrix_mse_inline(snapshot: ff.Snapshot, allocation: ff.Allocation) -> float:
    """Test-local BLUE variance from first principles (gain vector + noise matrix)."""
    sig = snapshot.prior.variance_theta
    amp = allocation.alpha_prime / sig
    g = snapshot.s  # unit channel-noise convention
    obs_var = sig * snapshot.inv_gamma
    h = np.sqrt(amp * g)
    big_r = np.diag(obs_var * amp * g + 1.0)
    quad = float(h @ np.linalg.inv(big_r) @ h)
    return np.inf if quad == 0 else 1.0 / quad


def min_power_dual_oracle(snapshot: ff.Snapshot, d0: float, iters: int = 300):
    """Min-power totals by direct bisection on the dual multiplier.

    Independent of the closed form's prefix scan: for a multiplier lam the
    per-sensor contribution is r(lam) = gamma * (1 - (lam*eta)**-0.5)+, and
    lam is bisected until the contributions sum to the required total.
    Returns (alpha, total_power).
    """
    required = snapshot.prior.variance_theta / d0
    eta, gamma, s = snapshot.eta, snapshot.gamma, snapshot.s
    usable = eta > 0

    def r_of(lam: float) -> np.ndarray:
        with np.errstate(divide="ignore"):
            raw = gamma * np.maximum(1.0 - 1.0 / np.sqrt(lam * np.where(usable, eta, 1.0)), 0.0)
        return np.where(usable, raw, 0.0)

    hi = 1.0
    while r_of(hi).sum() < required:
        hi *= 2.0
        assert hi < 1e300, "oracle bracket failed; instance infeasible?"
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if r_of(mid).sum() < required:
            lo = mid
        else:
            hi = mid
    r = r_of(hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(r > 0, r * gamma / (s * (gamma - r)), 0.0)
    total = float(np.sum(alpha * (1.0 + snapshot.inv_gamma)))
    return alpha, total


def l2_grid_oracle(snapshot: ff.Snapshot, d0: float, n_grid: int = 2001) -> float:
    """Best sum of squared powers on a dense grid of the constraint surface.

    K = 2 or 3 only.  The constraint is tight at the optimum (the objective
    grows with every contribution), so the grid walks sum(r) = required.
    Returns the smallest grid value of sum P^2 (an upper bound on the true
    optimum within grid resolution).
    """
    k = snapshot.k
    assert k in (2, 3)
    required = snapshot.prior.variance_theta / d0
    gamma, s = snapshot.gamma, snapshot.s
    inv_gamma = snapshot.inv_gamma

    def sum_sq(r: np.ndarray) -> float:
        if np.any(r < 0) or np.any(r >= gamma) or np.any((r > 0) & (s == 0)):
            return np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(r > 0, r * gamma / (s * (gamma - r)), 0.0)
        p = alpha * (1.0 + inv_gamma)
        return float(np.sum(p * p))

    best = np.inf
    grid0 = np.linspace(0.0, min(gamma[0] * (1 - 1e-9), required), n_grid)
    if k == 2:
        for r0 in grid0:
            best = min(best, sum_sq(np.array([r0, required - r0])))
    else:
        for r0 in grid0[:: max(1, n_grid // 201)]:
            rest = required - r0
            grid1 = np.linspace(0.0, min(gamma[1] * (1 - 1e-9), rest), 201)
            for r1 in grid1:
                best = min(best, sum_sq(np.array([r0, r1, rest - r1])))
    return best


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
    snapshot: ff.Snapshot, total_power: float, caps: Optional[ff.CapVector] = None
) -> ff.Allocation:
    """Sum-power (optionally capped) optimum via projected gradient descent.

    Independent of the closed forms: spectral (Barzilai-Borwein) step sizes
    with Armijo backtracking on the projected path, stopping once the
    relative objective decrease stays below ``_REF_STEP_TOL`` for five
    steps.  It validates its input as the closed-form solvers do.
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
        raise ff.ConvergenceFailure("projected gradient reference solver exhausted its budget")

    return ff.Allocation(x)


def clipping_oracle(snapshot: ff.Snapshot, total_power: float, caps: ff.CapVector):
    """``max_performance_with_caps`` as the plain clipping loop: one waterfill a pass.

    Solve without caps, clip every violator to its cap, take the clipped caps
    off the budget pass by pass, repeat on the sensors still free.  Returns
    (allocation, diagnostics, passes), ``passes`` being the waterfills made.
    """
    _check_budget(snapshot, total_power)
    limits = caps.alpha_limits(snapshot)
    order, gamma_u, u = _rank_row(snapshot)
    ranked = np.array((gamma_u * u, u, gamma_u / snapshot.s[order], limits[order]))

    alpha = np.zeros(snapshot.k)
    pending = np.flatnonzero((snapshot.eta == 0) & (limits == 0))
    budget = float(total_power)
    budget_dust = total_power * 1e-14
    threshold = math.nan
    passes = 0

    for _ in range(snapshot.k + 1):
        if order.size == 0 or budget <= budget_dust:
            break
        passes += 1
        sub_alpha, c0 = _waterfill_row(*ranked[:3], budget)
        violated = sub_alpha >= ranked[3]
        clipped = order[violated]
        if pending.size:
            clipped, pending = np.concatenate((clipped, pending)), pending[:0]
        if not clipped.size:
            alpha[order] = sub_alpha
            threshold = c0
            break
        clipped.sort()
        alpha[clipped] = limits[clipped]
        budget = max(budget - float(np.add.reduce(caps.caps[clipped])), 0.0)
        keep = ~violated
        order, ranked = order[keep], ranked.compress(keep, axis=1)
    else:
        raise ff.InternalConsistencyError("cap-clipping loop failed to terminate in K passes")

    diagnostics = ff.AllocationDiagnostics(
        active_count=int(np.count_nonzero(alpha > 0)),
        threshold_constant=threshold,
        dual_value=threshold**-2 if math.isfinite(threshold) else math.nan,
    )
    return ff.Allocation(alpha), diagnostics, passes


def exact_waterfill(snapshot: ff.Snapshot, total_power: float, caps: ff.CapVector):
    """``max_performance_with_caps`` in rational arithmetic on the float u = 1/sqrt(eta).

    The solver's clipping loop with every waterfill exact: over the free
    sensors in rank order, sensor k is on iff the budget B exceeds its turn-on
    budget sum_{j<k} gamma_j u_j (u_k - u_j), the threshold is
    c = (B + sum gamma u^2)/sum gamma u over the sensors on, and sensor k's
    budget is (gamma_k/s_k)(c - u_k)/u_k.  As in the solver, a clipped sensor
    sits at its float alpha limit, a dead one whose limit is 0 counts as
    clipped, and the free sensors share B = P minus the clipped caps, summed
    once in float in sensor-index order; a B of at most 1e-14 P is left
    slack.  Returns (alpha' as floats, active count, threshold, dual value),
    the last two NaN when the budget is left slack.
    """
    _check_budget(snapshot, total_power)
    limits = caps.alpha_limits(snapshot)
    gamma, s = [Fraction(x) for x in snapshot.gamma], [Fraction(x) for x in snapshot.s]
    u = [Fraction(1.0 / math.sqrt(eta)) if eta > 0 else None for eta in snapshot.eta]
    free = [int(i) for i in np.argsort(-snapshot.eta, kind="stable") if snapshot.eta[i] > 0]
    clipped = (snapshot.eta == 0) & (limits == 0)
    pending = clipped.any()
    alpha = [Fraction(0)] * snapshot.k
    threshold = None
    for _ in range(snapshot.k + 1):
        budget = Fraction(max(float(total_power) - float(np.add.reduce(caps.caps[clipped])), 0.0))
        if not free or budget <= total_power * 1e-14:
            break
        on, lead = 0, Fraction(0)  # the sensors on, and the next sensor's turn-on budget
        while on < len(free) and lead < budget:
            on += 1
            if on < len(free):
                lead = sum(gamma[j] * u[j] * (u[free[on]] - u[j]) for j in free[:on])
        c = (budget + sum(gamma[j] * u[j] ** 2 for j in free[:on])) / sum(
            gamma[j] * u[j] for j in free[:on]
        )
        budgets = {j: gamma[j] / s[j] * (c - u[j]) / u[j] for j in free[:on]}
        violated = [j for j in budgets if math.isfinite(limits[j]) and budgets[j] >= limits[j]]
        if not (violated or pending):
            alpha = [budgets.get(j, x) for j, x in enumerate(alpha)]
            threshold = c
            break
        pending = False
        for j in violated:
            clipped[j] = True
            alpha[j] = Fraction(limits[j])
        free = [j for j in free if j not in violated]
    else:
        raise AssertionError("the exact clipping loop did not end in K passes")
    alpha = [float(x) for x in alpha]
    if threshold is None:
        return alpha, sum(x > 0 for x in alpha), math.nan, math.nan
    return alpha, sum(x > 0 for x in alpha), float(threshold), float(threshold**-2)


def optimality_certificate(
    snapshot: ff.Snapshot, allocation: ff.Allocation, diagnostics: ff.AllocationDiagnostics
) -> tuple[np.ndarray, np.ndarray]:
    """Stationarity and complementarity residuals of a sum-power solution.

    Returns (stationarity_relative, complementarity_slack): the first is the
    relative mismatch of the active-sensor stationarity equation, the second
    is the margin by which inactive sensors satisfy the threshold inequality
    (negative entries mean a violation).
    """
    s = snapshot.s
    inv_gamma = snapshot.inv_gamma
    alpha = allocation.alpha_prime
    lam = diagnostics.dual_value
    with np.errstate(divide="ignore", invalid="ignore"):
        marginal = np.where(s > 0, 1.0 / s / (inv_gamma * alpha + 1.0 / np.where(s > 0, s, 1.0)) ** 2, 0.0)
    target = lam * (1.0 + inv_gamma)
    active = alpha > 0
    stationarity = np.where(active, np.abs(marginal - target) / target, 0.0)
    complementarity = np.where(active, 0.0, target - marginal)
    return stationarity, complementarity
