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

Each closed-form problem has one row path, the public solver, and one batch
path for Monte Carlo chunks (the ``*_batch`` kernels).  With u = 1/sqrt(eta)
every threshold scan is a running sum of non-negative steps, so no gamma
cancels against itself.  Under a sum power budget P sensor k is on once P
passes its turn-on budget T_k = sum_{j<k} gamma_j u_j (u_k - u_j); under a
fused-SNR requirement R while R u_k - sum_{j<k} gamma_j (u_k - u_j), summed
in steps of the sign of R - cumsum(gamma), is positive (``_min_power_cut``).
A row solver's active sensor k gets (gamma_k/s_k)(c - u_k)/u_k with c - u_k =
(c - u_last) + (u_last - u_k), u_last the largest u on (``_prefix_budgets``):
two non-negative terms.
The row solvers stay separate from the batch kernels because they are the
kernels' independent test reference.  A snapshot is ranked once, and scanned
once per problem, at first use (``_cached``); the capped clipping loop drops
clipped sensors from the ranked arrays instead of re-sorting the rest.  Its
free sensors share the budget minus the caps of every clipped sensor, summed
once, so its answer depends only on the final clipped set.  After its first
clipping pass the breakpoint scan ``_predict_clipped`` predicts the rest of
the clipped set; the next waterfill checks it, and a refuted prediction
reruns the plain loop, so the loop, not the scan, decides every answer.
``capped_mse_batch`` runs the same checked loop on whole chunks, each pass
one sum-power waterfill in which the clipped sensors' gamma is 0.

A chunk is a (trials, K) array.  Every batch kernel but the equal split reads
one merit ranking per row and one shared scan (``_rank_scan``), column-major
at any K, so every prefix sum over sensors adds whole contiguous columns
(``_cumsum_sensors`` adds column j-1 into column j: numpy's own additions in
numpy's own order).  The equal split keeps the chunk's order, and
``sample_batch`` hands out chunks of fewer than 8 sensors column-major, where
``np.sum(axis=1)`` adds whole columns too.  Row sorts and gathers
(``_row_sorter``, ``_take_rows``) keep a column-major chunk column-major.

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
from .model import Allocation, Snapshot, _check_positive, _frozen_vector, distortion_floor


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


@dataclass(frozen=True, eq=False)
class CapVector:
    """Per-sensor maximum transmit powers as a read-only array; ``math.inf`` marks no cap."""

    caps: np.ndarray

    def __post_init__(self):
        caps = _frozen_vector(self.caps)
        if not (caps > 0).all():
            raise ValueError("every cap must be > 0 (inf for unbounded)")
        object.__setattr__(self, "caps", caps)

    @classmethod
    def unbounded(cls, k: int) -> "CapVector":
        return cls(np.full(k, math.inf))

    @classmethod
    def uniform(cls, k: int, cap: float) -> "CapVector":
        return cls(np.full(k, cap))

    def alpha_limits(self, snapshot: Snapshot) -> np.ndarray:
        """Budget-space caps C_k = P_k^max / (1 + 1/gamma_k)."""
        if self.caps.size != snapshot.k:
            raise ValueError("cap vector length does not match K")
        return self.caps / (1.0 + snapshot.inv_gamma)


def _require_finite_gamma(snapshot: Snapshot) -> None:
    if np.count_nonzero(snapshot.inv_gamma) < snapshot.k:  # 1/gamma is 0 only where gamma = inf
        raise ValueError("allocation solvers require finite observation SNRs; "
                         "a noiseless sensor has no interior optimum")


def _require_merit(snapshot: Snapshot) -> None:
    if not np.count_nonzero(snapshot.eta):
        raise NoUsableSensor("all channel merits are zero")


# ---------------------------------------------------------------------------
# Row scans: sum-power waterfilling and minimum power under a target
# ---------------------------------------------------------------------------


def _solved(alpha: np.ndarray, c: float, dual: float):
    """A row solver's answer from its alpha', threshold constant c and dual value."""
    return Allocation(alpha), AllocationDiagnostics(int(np.count_nonzero(alpha > 0)), c, dual)


def _check_budget(snapshot: Snapshot, total_power: float) -> None:
    _check_positive("total_power", total_power)
    _require_finite_gamma(snapshot)
    _require_merit(snapshot)


def _rank_row(snapshot: Snapshot):
    """The snapshot's usable sensors (eta > 0) by descending merit, ties by index.

    Returns (order, gamma, u = 1/sqrt(eta)), the last two ranked; u does not decrease.
    """
    order = np.argsort(-snapshot.eta, kind="stable")[: np.count_nonzero(snapshot.eta)]
    return order, snapshot.gamma[order], 1.0 / np.sqrt(snapshot.eta[order])


def _cached(snapshot: Snapshot, build):
    """``build(snapshot)``, built once and kept in the snapshot under ``build``'s name."""
    cache = vars(snapshot)
    if build.__name__ not in cache:
        cache[build.__name__] = build(snapshot)
    return cache[build.__name__]


def _read_only(*arrays):
    for x in arrays:
        x.setflags(False)  # write=False, at half the cost of the keyword
    return arrays


def _ranking(snapshot: Snapshot):
    """``_rank_row``'s order and u, gain = gamma/s in rank order and du = diff(u)."""
    order, gamma_u, u = _rank_row(snapshot)
    return _read_only(order, u, gamma_u / snapshot.s[order], u[1:] - u[:-1])


def _row_scan(weights, du):
    """cumsum of ranked ``weights`` and its ``_lead``: a and T for gamma u, G and L for gamma."""
    prefix = np.add.accumulate(weights)
    return prefix, _lead(du[None, :], prefix[None, :])[0]


def _sum_scan(snapshot: Snapshot):
    """The ranking's order, u and gain, then rise = gamma u in rank order and its a and T."""
    order, u, gain, du = _cached(snapshot, _ranking)
    rise = snapshot.gamma[order] * u
    return (order, u, gain, *_read_only(rise, *_row_scan(rise, du)))


def _min_scan(snapshot: Snapshot):
    """The ranking, then G = cumsum(gamma) in rank order and its lead L; no gamma u is formed."""
    order, u, gain, du = _cached(snapshot, _ranking)
    return (order, u, gain, du, *_read_only(*_row_scan(snapshot.gamma[order], du)))


def _prefix_budgets(gain, u, k1: int, excess, den):
    """Ranked budgets gain_k (c - u_k)/u_k on the first k1 sensors, 0 after.

    ``gain`` is gamma/s in rank order.  With the anchor u_last = u[k1 - 1],
    c - u_k is (c - u_last) + (u_last - u_k), two non-negative terms, and
    c - u_last = ``excess``/``den``: the threshold's margin over the last
    sensor on, level - lead there, over the scan's divisor.
    """
    alpha = np.zeros(u.size)
    on = u[:k1]
    alpha[:k1] = gain[:k1] * (excess / den + (on[-1] - on)) / on
    return alpha


def _waterfill_row(rise, u, gain, total_power: float, scan=None):
    """Ranked budgets and threshold c0 of one sum-power waterfill.

    ``rise`` = gamma u and ``gain`` = gamma/s in rank order, ``scan`` their (a, T)
    if built.  The k1 sensors on are those whose turn-on budget T is below P,
    and c0 - u_last = (P - T_last)/a, a = sum(gamma u) over them.
    """
    a, turn_on = scan or _row_scan(rise, u[1:] - u[:-1])
    k1 = int(np.count_nonzero(turn_on < total_power))
    excess, a = total_power - turn_on[k1 - 1], a[k1 - 1]
    return _prefix_budgets(gain, u, k1, excess, a), float(u[k1 - 1] + excess / a)


def max_performance_allocation(
    snapshot: Snapshot, total_power: float
) -> tuple[Allocation, AllocationDiagnostics]:
    """Distortion-minimizing budgets under the sum transmit-power constraint.

    The budget constraint is tight: the returned transmit powers sum to
    ``total_power``.  Sensors whose merit falls below 1/threshold**2 are
    shut off entirely.
    """
    _check_budget(snapshot, total_power)
    order, u, gain, rise, *scan = _cached(snapshot, _sum_scan)
    ranked, c0 = _waterfill_row(rise, u, gain, total_power, scan)
    alpha = np.zeros(snapshot.k)
    alpha[order] = ranked
    return _solved(alpha, c0, c0**-2)


def _predict_clipped(u, rise, cap, budget) -> np.ndarray:
    """Which sensors of each ranked row sit at their cap once the capped spend reaches ``budget``.

    At threshold c sensor k spends clip(rise (c - u), 0, cap): it turns on at u and
    reaches its cap cap/rise later (+inf where rise is 0).  One sort of the 2K
    breakpoints and a running sum of the slope give the spend at each breakpoint, as
    ``_lead`` of the slope over the gaps; the sensors whose cap breakpoint is at or below
    the last breakpoint whose spend is within the budget are predicted.  Only a
    prediction: the slope's running sum cancels, so the clipping loop checks it.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        at_cap = u + cap / rise
        breaks = np.concatenate((u, at_cap), axis=1)
        permute = _row_sorter(breaks)
        slope = _cumsum_sensors(permute(np.concatenate((rise, -rise), axis=1)))
        breaks = permute(breaks)
        spend = _lead(breaks[:, 1:] - breaks[:, :-1], slope)
        within = (spend <= budget) & np.isfinite(breaks)
    return at_cap <= np.where(within, breaks, -np.inf).max(axis=1, keepdims=True)


def _clip_to_caps(snapshot: Snapshot, total_power: float, caps, limits, predict: bool):
    """``max_performance_with_caps``'s clipping loop: (alpha', threshold), or None.

    None means the predicted clipped set failed its check; the loop without
    prediction (``predict`` False) never returns None.
    """
    order, u, gain, rise, *scan = _cached(snapshot, _sum_scan)  # scan: the first pass's a and T
    # The free sensors' terms in rank order: gamma u, u, gamma/s and the alpha limits, one row
    # each, so that one gather drops the clipped sensors from all.
    ranked = np.array((rise, u, gain, limits[order]))

    alpha = np.zeros(snapshot.k)
    # Dead sensors are not ranked.  One whose alpha limit rounds to 0 already sits at it, so it
    # counts as clipped in the first pass, and its cap comes off the budget.
    clipped = (snapshot.eta == 0) & (limits == 0)
    pending = clipped.any()
    budget = float(total_power)
    budget_dust = total_power * 1e-14  # clipping can leave rounding residue
    predicted = None  # u, gain and alpha limit of the sensors clipped on a prediction

    def budget_left(at_cap):
        # The free sensors share P minus every clipped cap, summed by sensor index: the budget
        # depends only on the clipped set, not on how many passes found it.
        return max(float(total_power) - float(np.add.reduce(caps[at_cap])), 0.0)

    for _ in range(snapshot.k + 1):
        if order.size == 0 or budget <= budget_dust:
            if predicted is not None and budget <= budget_dust:
                return None
            return alpha, math.nan
        sub_alpha, c0 = _waterfill_row(*ranked[:3], budget, scan)
        violated = sub_alpha >= ranked[3]
        if not (violated.any() or pending):
            if predicted is not None:  # each predicted sensor must still reach its cap at c0
                p_u, p_gain, p_limit = predicted
                if (p_gain * (c0 - p_u) < p_limit * p_u).any():
                    return None
            alpha[order] = sub_alpha
            return alpha, c0
        pending = False
        clipped[order[violated]] = True
        budget = budget_left(clipped)
        keep = ~violated
        # After the first pass that clips, one scan predicts the rest of the clipped set.  It costs
        # about one pass, so it runs only where it can save more: with three or more sensors free.
        if predict and budget > budget_dust and np.count_nonzero(keep) > 2:
            free = np.flatnonzero(keep)
            rise, u = ranked[:2, free]
            at_cap = free[_predict_clipped(u[None], rise[None], caps[order[free]], budget).ravel()]
            guess = clipped.copy()
            guess[order[at_cap]] = True
            left = budget_left(guess)
            if at_cap.size and left > budget_dust:  # a guess that uses the budget up is not taken
                predicted = ranked[1:, at_cap]
                keep[at_cap] = False
                clipped, budget = guess, left
        predict = False
        alpha[clipped] = limits[clipped]
        order, ranked, scan = order[keep], ranked.compress(keep, axis=1), None
    raise InternalConsistencyError("cap-clipping loop failed to terminate in K passes")


def max_performance_with_caps(
    snapshot: Snapshot, total_power: float, caps: CapVector
) -> tuple[Allocation, AllocationDiagnostics]:
    """Distortion-minimizing budgets under sum power plus per-sensor caps.

    Iterates: solve without caps, clip every violator to its cap, remove the
    clipped sensors from the problem, repeat.  The free sensors share the
    budget minus the caps of every clipped sensor, summed once in
    sensor-index order, so the result depends only on the final clipped set.
    Terminates in at most K passes since each pass removes at least one
    sensor.  The sensors are ranked once per call, and each pass runs on the
    ranked per-sensor terms of the sensors still free: a stable ranking of a
    subset is the full ranking with entries removed, so each pass makes the
    same additions, in the same order, as a fresh waterfill over the free
    sensors.

    After the first pass that clips, the breakpoint scan ``_predict_clipped``
    runs on the still-free sensors and predicts the rest of the clipped set,
    and those sensors are clipped in the same pass.  The next pass is the
    check: it clips violators as before.  If a predicted sensor's uncapped
    budget at the final threshold falls short of its cap, or a pass after
    the prediction ends with the budget used up, the solve reruns the loop
    without prediction.  So a wrong prediction costs time but never changes
    the answer.  The scan is skipped with fewer than three sensors free, and
    a prediction that would use the whole budget up is not taken.

    If the caps together cannot absorb the budget, everything ends up
    clipped and the sum constraint is left slack at sum(caps); so is a
    remainder of at most 1e-14 of the budget, which clipping can leave as
    rounding residue.  ``capped_mse_batch`` runs the same checked loop on
    whole chunks and is tested against this one.
    """
    _check_budget(snapshot, total_power)
    limits = caps.alpha_limits(snapshot)
    solved = _clip_to_caps(snapshot, total_power, caps.caps, limits, True)
    alpha, threshold = solved or _clip_to_caps(snapshot, total_power, caps.caps, limits, False)
    return _solved(alpha, threshold, threshold**-2 if math.isfinite(threshold) else math.nan)


def _check_target(snapshot: Snapshot, distortion_target: float) -> float:
    """Validate strict feasibility and return the required fused SNR total."""
    _check_positive("distortion_target", distortion_target)
    _require_finite_gamma(snapshot)
    floor = _cached(snapshot, distortion_floor)  # inf on dead channels alone
    if distortion_target <= floor:
        raise InfeasibleTarget(distortion_target, floor)
    _require_merit(snapshot)  # live channels whose merits all underflow leave the floor finite
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
    required = _check_target(snapshot, distortion_target)

    order, u, gain, du, prefix_gamma, lead = _cached(snapshot, _min_scan)
    if not prefix_gamma[-1] > required:  # summed in rank order, the floor's sum can reach R
        raise InfeasibleTarget(distortion_target, _cached(snapshot, distortion_floor))
    k1 = max(int(_min_power_cut(u[None], du[None], prefix_gamma[None], required, True)[0][0]), 1)
    d = prefix_gamma[k1 - 1] - required
    # d (rho0 - u_last), f at the cut in other roundings: at a tie it can round below 0.
    excess = max(required * u[k1 - 1] - lead[k1 - 1], 0.0)
    alpha = np.zeros(snapshot.k)
    alpha[order] = _prefix_budgets(gain, u, k1, excess, d)
    rho0 = float(u[k1 - 1] + excess / d)
    return _solved(alpha, rho0, rho0**2)


#: Steps any one monotone Newton iteration may take before it counts as stalled; gamma over
#: 1e-2..1e4, s over 1e-3..1e6 and targets within 1e-13 of the floor take under 100.
_NEWTON_MAX_STEPS = 1000


def _monotone_newton(x: np.ndarray, newton_step, direction: float, label: str, *arrays):
    """Newton iterates that move every entry of x one way only, in ``direction``.

    ``newton_step(x[held], *arrays)`` returns the next iterates of the entries
    held in ``arrays``, one row per entry.  An entry stops, keeping its last
    value, once its step no longer moves it in ``direction``; the arrays drop
    stopped entries under ``_shrink``'s rule.
    """
    held = live = np.arange(x.size)  # x's entries that the arrays hold; the live ones among them
    for _ in range(_NEWTON_MAX_STEPS):
        new = newton_step(x[held], *arrays)[live]
        at = held[live]
        moves = (new - x[at]) * direction > 0
        x[at[moves]] = new[moves]
        live = live[moves]
        if live.size == 0:
            return x
        (held, *arrays), live = _shrink((held, *arrays), live)
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
    required = _check_target(snapshot, distortion_target)

    usable = snapshot.eta > 0
    gamma_u = snapshot.gamma[usable]
    half_eta_sq = snapshot.eta[usable] ** 2 / 2.0

    def cubic_root(lam: float) -> np.ndarray:
        w = lam * half_eta_sq / gamma_u
        return _monotone_newton(  # w^(-1/3) is at or above the root
            1.0 / np.maximum(np.cbrt(w), 1.0),
            lambda v, w: v - (w * v**3 + v - 1.0) / (3.0 * w * v**2 + 1.0),
            -1.0,
            "squared-power stationarity",
            w,
        )

    # u = w v^3 at the root, so the fused total sum(gamma u) = lam sum(eta^2 v^3 / 2) and the
    # budgets gamma u / (s v) = lam eta^2 v^2 / (2 s) take no difference of 1 and v.
    def dual_step(lam: np.ndarray) -> np.ndarray:
        v = cubic_root(float(lam[0]))
        slope = half_eta_sq @ (v**4 / (3.0 - 2.0 * v))  # du/dw = v^4 / (3 - 2v)
        return lam + (required - lam * (half_eta_sq @ v**3)) / slope

    lam = float(_monotone_newton(np.zeros(1), dual_step, 1.0, "squared-power dual")[0])
    alpha = np.zeros(snapshot.k)
    alpha[usable] = lam * half_eta_sq * cubic_root(lam) ** 2 / snapshot.s[usable]
    return Allocation(alpha)


# ---------------------------------------------------------------------------
# Batched closed forms for Monte Carlo kernels (arrays of snapshots)
# ---------------------------------------------------------------------------


def _layout(x: np.ndarray) -> str:
    """A chunk's memory order: "C" if each row's entries are adjacent, else "F".

    A row-major chunk, a single row and a contiguous vector read "C".
    """
    return "C" if abs(x.strides[-1]) == x.itemsize else "F"


def _cumsum_sensors(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """np.cumsum(x, axis=1), run down the columns of a column-major chunk.

    Adding column j-1 into column j is cumsum's own sequence of additions,
    so the sums are bit-identical; the loop just reads whole contiguous
    columns instead of short strided rows.  A row-major chunk, such as the
    (1, K) row of a scalar solve, takes one accumulate call: a Python loop
    over its columns would cost more than the additions.
    """
    if _layout(x) == "C":
        return np.add.accumulate(x, axis=1, out=out)
    if out is None:
        out = np.empty(x.shape, order="F")
    out[:, :1] = x[:, :1]
    for before, column, into in zip(out.T, x.T[1:], out.T[1:]):  # views made by iteration
        np.add(before, column, out=into)
    return out


def _row_sorter(keys: np.ndarray):
    """A function permuting any chunk's rows by the stable argsort of each row of ``keys``.

    The result keeps the memory order of ``keys``.  A chunk is gathered through its flat index in
    that order: a column-major one stays column-major (take_along_axis would not), and one row,
    as in a row solve's scan, by its argsort order alone (0.5 us; take_along_axis takes 4).
    """
    if _layout(keys) == "C":
        order = np.argsort(keys, axis=1, kind="stable")
        at = order + np.arange(0, order.size, keys.shape[1])[:, None] if len(keys) > 1 else order
        return lambda x: x.ravel()[at]
    order = np.argsort(keys.T, axis=0, kind="stable").T  # sorted as rows, stored column-major
    at = order * keys.shape[0]
    at += np.arange(keys.shape[0])[:, None]
    return lambda x: x.ravel("F")[at]


def _take_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """x[rows], kept in x's memory order; a column-major chunk is gathered column by column."""
    return x.T.take(rows, axis=1).T if _layout(x) == "F" else x.take(rows, axis=0)


def _shrink(arrays, live: np.ndarray):
    """Per-row ``arrays`` gathered down to their ``live`` rows, and ``live`` renumbered to match,
    once those are at most 3/4 of the rows held: a gather after every shrink cost more than it
    saved on slowly falling outage curves."""
    if 4 * live.size > 3 * arrays[0].shape[0]:
        return arrays, live
    return [_take_rows(x, live) for x in arrays], np.arange(live.size)


def _min_power_cut(u, du, prefix_gamma, required, usable):
    """(k1, f): the k1 usable sensors per ranked row where f_m = R u_m - L_m > 0, and f.

    f_1 = R u_1 and f_{m+1} = f_m + (R - G_m) du_m.  A rounded R - G_m keeps its
    sign and du >= 0, so as G grows f rises, then falls: the cut is a prefix.
    A step past it fell, so d = G_k1 - R > 0; with every usable sensor on, d > 0
    is the row's feasibility.  k1 >= 1 unless R u_1 underflows.
    """
    f = np.empty_like(u)
    f[:, 0] = required * u[:, 0]
    steps = np.subtract(required, prefix_gamma[:, :-1], out=f[:, 1:])
    steps *= du
    _cumsum_sensors(f, out=f)
    return np.add.reduce((f > 0) & usable, axis=1), f


def _at_cut(k1, *arrays):
    """Each (rows, K) array's entry at (row, k1 - 1), column 0 where k1 is 0: one flat gather
    into arrays that share the first one's memory order."""
    layout, rows, cut = _layout(arrays[0]), np.arange(k1.size), np.maximum(k1 - 1, 0)
    at = cut * k1.size + rows if layout == "F" else rows * arrays[0].shape[1] + cut
    return [x.ravel(layout).take(at) for x in arrays]


def _lead(du, prefix, out=None):
    """Running sums lead_m = sum_{j<m} prefix_j du_j along ranked rows, ``du`` = diff(u).

    With prefix = cumsum(weights), lead_m = sum_{j<m} weights_j (u_m - u_j):
    a sum of non-negative steps, in which no gamma cancels against itself
    (1 - d/(sqrt(eta)*c) loses every digit next to a gamma above ~1e16).
    Weights gamma give L (the min-power row solver's excess is R u - L),
    weights gamma u the turn-on budgets T.  ``prefix`` may be ``out[:, 1:]``.
    """
    lead = np.empty((du.shape[0], du.shape[1] + 1), order=_layout(prefix)) if out is None else out
    lead[:, 0] = 0.0  # not np.zeros: calloc maps fresh pages, which fault in on first write
    steps = np.multiply(prefix[:, : du.shape[1]], du, out=lead[:, 1:])
    _cumsum_sensors(steps, out=steps)
    return lead


def _rank_scan(gamma, s):
    """Each row of a chunk ranked by descending merit once, and the scan both problems read:
    ranked g, eta, u = 1/sqrt(eta) (g and u 0 on unusable sensors; u does not decrease along a row
    until the unusable tail), the usable mask (eta > 0) and ``_shared_scan``'s du, a, T and G, all
    column-major and each in a buffer that no kernel writes over."""
    eta = np.divide(1.0, gamma)
    eta = np.divide(s, np.add(eta, 1.0, out=eta), out=eta)  # s / (1 + 1/gamma) in one buffer
    g, eta = (np.asfortranarray(x) for x in map(_row_sorter(-eta), (gamma, eta)))
    dead = eta == 0
    u = np.sqrt(eta)
    with np.errstate(divide="ignore"):
        np.divide(1.0, u, out=u)
    g[dead] = u[dead] = 0.0
    return (g, eta, u, ~dead, *_shared_scan(g, u, dead))


def _shared_scan(g, u, dead):
    """Running sums along ranked rows that both problems read: du = diff(u), a = cumsum(gamma u),
    the turn-on budgets T = ``_lead`` of a (+inf on ``dead`` sensors) and G = cumsum(gamma)."""
    du = u[:, 1:] - u[:, :-1]
    a = g * u
    turn_on = _lead(du, _cumsum_sensors(a, out=a))
    turn_on[dead] = np.inf
    return du, a, turn_on, _cumsum_sensors(g)


def _waterfill_sums(g, u, du, a, turn_on, prefix_gamma):
    """Sum-power sums of ranked g and u from their shared scan: its a, T and G, then, in fresh
    buffers, w = cumsum(gamma u^2) and Q_m = sum_{j<k<=m} gamma_j gamma_k (u_k - u_j)^2.

    Q is G w - a^2 (Lagrange's identity) without the cancellation: Q = cumsum(gamma S2), S2_m =
    sum_{j<m} gamma_j (u_m - u_j)^2 = ``_lead`` of L_m + L_{m+1}, L = ``_lead`` of G.  Q can
    overflow where the shared scan does not, so the min-power kernel never forms it.
    """
    lead = _lead(du, prefix_gamma)
    square = np.empty_like(lead)
    square = _lead(du, np.add(lead[:, :-1], lead[:, 1:], out=square[:, 1:]), out=square)
    w = np.multiply(np.multiply(g, u, out=lead), u, out=lead)
    q = np.multiply(g, square, out=square)
    return a, turn_on, prefix_gamma, _cumsum_sensors(w, out=w), _cumsum_sensors(q, out=q)


def _waterfill_rows(ranked):
    """The capped kernel's rows from a ``_rank_scan``: g, eta, u, a, T, G, w, Q; optimal: last 4."""
    g, eta, u, _, *scan = ranked
    return (g, eta, u, *_waterfill_sums(g, u, *scan))


def _waterfill_mse(turn_on, prefix_gamma, w, q, total_power, sigma_theta_sq):
    """Optimal distortion and active count per row, one budget for every row.

    The k1 sensors whose turn-on budget is below P are on, and the fused SNR
    G - a/c, c = (P + w)/a, is (G P + Q)/(P + w) at the cut.  Rows with no
    usable sensor get mse = +inf and k1 = 0.
    """
    k1 = np.add.reduce(turn_on < total_power, axis=1)
    w_cut, g_cut, q_cut = _at_cut(k1, w, prefix_gamma, q)
    den = g_cut * total_power + q_cut
    mse = sigma_theta_sq * (total_power + w_cut) / np.where(k1 > 0, den, 1.0)
    return np.where(k1 > 0, mse, np.inf), k1


def _mse_from_total(total: np.ndarray, sigma_theta_sq: float) -> np.ndarray:
    return np.where(total > 0, sigma_theta_sq / np.where(total > 0, total, 1.0), np.inf)


def sum_power_mse_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, total_power: float
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal-allocation distortion for a (trials, K) batch of snapshots at one budget.

    Returns (mse, active_count), each of shape (trials,); rows with no usable
    sensor get mse = +inf and active_count = 0, matching the outage convention.
    """
    return _waterfill_mse(*_waterfill_rows(_rank_scan(gamma, s))[4:], float(total_power),
                          sigma_theta_sq)


def equal_power_mse_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, total_power: float
) -> np.ndarray:
    """Equal-split distortion for a (trials, K) batch at one budget; +inf where undefined."""
    return _equal_mse(*_equal_rows(gamma, s), float(total_power), sigma_theta_sq)


def _equal_rows(gamma, s):
    """Budget-independent arrays of the equal split: s, 1/gamma and denom = K (1 + 1/gamma)."""
    inv_gamma = 1.0 / gamma
    return s, inv_gamma, gamma.shape[1] * (1.0 + inv_gamma)


def _equal_mse(s, inv_gamma, denom, budget, sigma_theta_sq) -> np.ndarray:
    """Equal-split distortion per row from its ``_equal_rows`` arrays, one budget for every row.

    The fused SNR total is sum(P s / (P s/gamma + denom)), denom = K (1 + 1/gamma).
    """
    ps = budget * s
    return _mse_from_total(np.sum(ps / (inv_gamma * ps + denom), axis=1), sigma_theta_sq)


def _equal_budget_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, d0: float
) -> np.ndarray:
    """Smallest uniform budget meeting the target per row; +inf at or below the row's floor."""
    required = sigma_theta_sq / d0
    feasible = _live_total(gamma, s) > required
    budget = np.full(gamma.shape[0], np.inf)
    budget[feasible] = _equal_budget(*_equal_rows(gamma, s), np.flatnonzero(feasible), required)
    return budget


def _equal_budget(s, inv_gamma, denom, rows, required) -> np.ndarray:
    """Smallest uniform budget giving fused SNR ``required`` on ``rows`` of ``_equal_rows`` arrays.

    Every row must lie above its floor.  The fused SNR total f(P) is
    increasing and concave with f(0) = 0, so Newton steps from P = 0 stay
    below the root and rise to it.  A step works in two (rows, K) temporaries
    on the rows ``_monotone_newton`` holds.  A gather at every step, with a
    new temporary for each operation, cost one K=100 min-power chunk (3
    targets) 6.6 s and 2.0M minor page faults against 3.3 s and 0.54M (fresh
    processes, 2-core Xeon).
    """

    def newton_step(budget, s, inv_gamma, denom, s_denom):
        ps = budget[:, None] * s
        q = inv_gamma * ps
        q += denom  # the fused SNR total is sum(ps / q), as in _equal_mse
        total = np.sum(np.divide(ps, q, out=ps), axis=1)
        slope = np.sum(np.divide(s_denom, np.square(q, out=q), out=q), axis=1)
        return budget + (required - total) / slope

    held = [_take_rows(x, rows) for x in (s, inv_gamma, denom)]  # then s * denom, the slope's
    return _monotone_newton(np.zeros(rows.size), newton_step, 1.0, "equal-power budget",
                            *held, held[0] * held[2])


def min_power_total_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, distortion_target: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum total power per row of a (trials, K) batch, at the given target.

    Returns (total_power, active_count, feasible); infeasible rows (target at
    or below the row's floor) carry total_power = +inf.
    """
    return _min_power_total(*_rank_scan(gamma, s)[2:], _live_total(gamma, s),
                            sigma_theta_sq / distortion_target)


def _live_total(gamma, s):
    """Each row's total of live gamma (s > 0), summed in sensor order as the equal split sums it."""
    return np.where(s > 0, gamma, 0.0).sum(axis=1)


def _min_power_total(u, usable, du, a, turn_on, prefix_gamma, live_total, required):
    """``min_power_total_batch`` at fused SNR ``required`` from a ``_rank_scan`` but g and eta.

    The k1 sensors on spend T + a (c - u_k1) at the cut, and c - u_k1 = f/(G - R).  A row is
    feasible only where both its merit-ordered total (the divisor's) and its sensor-ordered total
    (the equal-split budget's) exceed R: within rounding of the floor they can disagree.
    """
    feasible = (prefix_gamma[:, -1] > required) & (live_total > required)
    k1, f = _min_power_cut(u, du, prefix_gamma, required, usable)
    f, g_cut, a, turn_on = _at_cut(k1, f, prefix_gamma, a, turn_on)
    d = np.where(feasible, g_cut - required, np.inf)
    total = np.where(feasible, turn_on + a * (f / d), np.inf)
    return total, np.where(feasible, k1, 0), feasible


def capped_mse_batch(
    gamma: np.ndarray, s: np.ndarray, sigma_theta_sq: float, total_power: float, cap_power: float
) -> np.ndarray:
    """Capped-allocation distortion for a (trials, K) batch, one transmit cap (may be +inf) for all
    sensors; +inf on rows with no usable sensor."""
    return _capped_mse(*_waterfill_rows(_rank_scan(gamma, s)), float(total_power),
                       float(cap_power), sigma_theta_sq)


def _capped_mse(g, eta, u, a, turn_on, prefix_gamma, w, q, budget, cap, sigma_theta_sq):
    """``capped_mse_batch`` from its ``_waterfill_rows`` arrays at one budget and one cap.

    Peak-constrained waterfilling (Palomar & Fonollosa, IEEE Trans. Signal Process.
    53(2), 2005) by ``max_performance_with_caps``'s clipping loop on whole rows.  The
    first pass is the uncapped waterfill, read from the rows' sums.  Rows where it takes
    a sensor to its cap clip it and, with three or more sensors still free, the set
    ``_predict_clipped`` predicts.  Each next pass is one sum-power waterfill over the
    free sensors with P minus the caps; a row whose caps leave at most 1e-14 P waterfills
    a budget of 0.  The pass after a prediction checks it: no free sensor may reach its
    cap, every clipped one must, and the caps may exceed P by at most 1e-14 P.  A
    refuted row restarts from the first pass's clips, so the loop, not the scan, decides
    every answer.  A clipped sensor adds x/(x/gamma + 1), x = cap eta, to the fused SNR.
    """
    mse = _waterfill_mse(turn_on, prefix_gamma, w, q, budget, sigma_theta_sq)[0]
    if cap >= budget:  # no sensor can spend more than the budget, so the cap never binds
        return mse
    at_cap = cap * (1.0 - 4.0 * np.finfo(float).eps)  # rounding just short of a cap costs no pass
    first = _capped_pass(g, u, budget, a, turn_on, prefix_gamma, w, q)[1] >= at_cap
    hit = np.flatnonzero(first.any(axis=1))
    if hit.size == 0:
        return mse
    g, u, eta, first = (_take_rows(x, hit) for x in (g, u, eta, first))
    clipped, dust = np.copy(first), budget * 1e-14
    # The scan costs about one pass, so as in the row solver it runs only with three or more free.
    free = (u > 0) & ~first
    checked = np.add.reduce(free, axis=1) > 2
    scan = np.flatnonzero(checked)
    left = budget - np.add.reduce(first, axis=1)[scan, None] * cap
    clipped[scan] |= _predict_clipped(*(_take_rows(x, scan) for x in (u, g * u * free)), cap, left)
    free_total, live = np.empty(hit.size), np.arange(hit.size)
    while live.size:  # each pass clips more of every row it keeps, or refutes its prediction once
        gl, ul, held = (_take_rows(x, live) for x in (g, u, clipped))
        left = budget - np.add.reduce(held, axis=1) * cap
        room = np.where(left > dust, left, 0.0)
        free_g = gl * ~held
        sums = _waterfill_sums(free_g, ul, *_shared_scan(free_g, ul, ul == 0))
        total, spend = _capped_pass(gl, ul, room, *sums)
        reached = spend >= at_cap
        over = reached & ~held  # free sensors at or past their cap
        grows = over.any(axis=1)
        refuted = checked[live] & (grows | (held & ~reached).any(axis=1) | (left < -dust))
        done = ~(grows | refuted)
        free_total[live[done]] = total[done]
        clipped[live[grows]] |= over[grows]
        clipped[live[refuted]] = first[live[refuted]]
        checked[live] = False
        live = live[~done]
    x = cap * eta
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on unusable sensors, never clipped
        capped = np.where(clipped, x / (x / g + 1.0), 0.0)
    # A running sum adds in sensor order at any row count; a reduce over one row pairs its terms.
    capped = _cumsum_sensors(capped, out=capped)[:, -1]
    mse[hit] = _mse_from_total(free_total + capped, sigma_theta_sq)
    return mse


def _capped_pass(g, u, budget, a, turn_on, prefix_gamma, w, q):
    """One sum-power waterfill per ranked row from its sums, at one ``budget`` B or one per row:
    the fused SNR of the sensors on, and each sensor's uncapped spend gamma u (c - u) at c.

    c - u_k is (B - T_cut)/a_cut + (u_cut - u_k), two non-negative terms on the sensors on.
    B = 0 puts c at the first sensor with gamma > 0, and c is +inf where there is none.
    """
    k1 = np.add.reduce(turn_on <= np.reshape(budget, (-1, 1)), axis=1)
    t, a, anchor, w, g_cut, q = _at_cut(k1, turn_on, a, u, w, prefix_gamma, q)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where nothing is on
        excess = np.where(a > 0, (budget - t) / a, np.inf)
        total = np.where(w > 0, (g_cut * budget + q) / (budget + w), 0.0)
        return total, g * u * (excess[:, None] + (anchor[:, None] - u))


__all__ = [
    "AllocationDiagnostics",
    "CapVector",
    "max_performance_allocation",
    "max_performance_with_caps",
    "min_power_allocation",
    "l2_min_power_allocation",
    "sum_power_mse_batch",
    "equal_power_mse_batch",
    "min_power_total_batch",
    "capped_mse_batch",
]
