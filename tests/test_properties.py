"""Property tests of the allocation solvers over extreme gamma, s and p_tot."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fadefusion as ff
from fadefusion.allocation import (
    _equal_budget_batch,
    capped_mse_batch,
    equal_power_mse_batch,
    min_power_total_batch,
    sum_power_mse_batch,
)


def log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def snapshots(draw, max_gamma_db=40):
    """Snapshots with gamma over -20..max_gamma_db dB and s over -30..60 dB or dead; one sensor lives."""
    k = draw(st.integers(1, 8))
    gamma = draw(st.lists(log_uniform(-2, max_gamma_db / 10), min_size=k, max_size=k))
    s = draw(st.lists(st.one_of(st.just(0.0), log_uniform(-3, 6)), min_size=k, max_size=k))
    s[draw(st.integers(0, k - 1))] = draw(log_uniform(-3, 6))
    return ff.Snapshot.from_arrays(1.0, gamma, s)


budgets = log_uniform(-3, 3)
cap_scales = st.floats(1.0, 4.0)


def row_arrays(snapshot):
    return snapshot.gamma[None, :], snapshot.s[None, :]


# Fixed relative tolerance of every property.  The closed forms evaluate
# c*sqrt(eta) - 1 and sum(gamma) - a/c, which cancel when a live sensor's
# received SNR P*s is small next to 1 + gamma (about log10((1 + gamma)/(P*s))
# of the 16 digits are lost); the pinned examples are such cases and are
# expected to fail until the closed forms are made cancellation-free.
REL = 1e-9
CANCELLATION = "closed forms cancel when P*s << 1 + gamma (ROADMAP item 3)"


@given(snapshots(), budgets, cap_scales)
@example(ff.Snapshot.from_arrays(1.0, [100.0], [0.01]), 1e-3, 2.0).xfail(
    reason=CANCELLATION, raises=AssertionError
)
def test_capped_batch_kernel_matches_row_solver(snapshot, p_tot, cap_scale):
    cap = cap_scale * p_tot / snapshot.k
    capped, _ = ff.max_performance_with_caps(snapshot, p_tot, ff.CapVector.uniform(snapshot.k, cap))
    batch = capped_mse_batch(*row_arrays(snapshot), 1.0, p_tot, cap)[0]
    assert batch == pytest.approx(ff.blue_mse(snapshot, capped), rel=REL)


@given(snapshots(), budgets, cap_scales)
@example(ff.Snapshot.from_arrays(1.0, [1000.0], [0.001]), 0.1, 1.0).xfail(
    reason=CANCELLATION, raises=AssertionError
)
def test_optimal_beats_capped_beats_equal(snapshot, p_tot, cap_scale):
    gamma, s = row_arrays(snapshot)
    optimal = sum_power_mse_batch(gamma, s, 1.0, p_tot)[0][0]
    capped = capped_mse_batch(gamma, s, 1.0, p_tot, cap_scale * p_tot / snapshot.k)[0]
    equal = equal_power_mse_batch(gamma, s, 1.0, p_tot)[0]
    assert optimal <= capped * (1 + REL)
    assert capped <= equal * (1 + REL)


@given(snapshots(), budgets, st.floats(1.0, 100.0))
def test_optimal_distortion_does_not_grow_with_budget(snapshot, p_tot, factor):
    gamma, s = row_arrays(snapshot)
    mse = sum_power_mse_batch(gamma, s, 1.0, np.array([p_tot, p_tot * factor]))[0][:, 0]
    assert mse[1] <= mse[0] * (1 + REL)


@given(snapshots(), budgets)
@example(ff.Snapshot.from_arrays(1.0, [1000.0], [0.01]), 1e-2).xfail(
    reason=CANCELLATION, raises=AssertionError
)
def test_min_power_at_the_optimal_distortion_round_trips(snapshot, p_tot):
    allocation, _ = ff.max_performance_allocation(snapshot, p_tot)
    cheapest, _ = ff.min_power_allocation(snapshot, ff.blue_mse(snapshot, allocation))
    assert cheapest.total_power(snapshot) == pytest.approx(p_tot, rel=REL)


def exact_min_power_total(snapshot, required):
    """Minimum total power in rational arithmetic on the snapshot's rounded u = 1/sqrt(eta).

    The active prefix ends at the first k1 whose gammas exceed the requirement
    and whose threshold rho = sum(gamma u)/(sum(gamma) - required) does not
    reach the next sensor's u; sensor k then spends gamma_k u_k (rho - u_k).
    """
    live = [i for i in np.argsort(-snapshot.eta, kind="stable") if snapshot.eta[i] > 0]
    g = [Fraction(snapshot.gamma[i]) for i in live]
    u = [1 / Fraction(math.sqrt(snapshot.eta[i])) for i in live]
    for k1 in range(1, len(g) + 1):
        d = sum(g[:k1]) - Fraction(required)
        rho = sum(gk * uk for gk, uk in zip(g[:k1], u[:k1])) / d if d > 0 else None
        if rho is not None and (k1 == len(g) or u[k1] >= rho):
            return float(sum(gk * uk * (rho - uk) for gk, uk in zip(g[:k1], u[:k1])))
    raise AssertionError("the requirement exceeds the sum of gammas")


@given(snapshots(max_gamma_db=200), st.floats(0.001, 0.999))
def test_min_power_kernel_is_exact_up_to_huge_gammas(snapshot, share):
    required = share * float(np.sum(snapshot.gamma[snapshot.s > 0]))
    total, _, feasible = min_power_total_batch(*row_arrays(snapshot), 1.0, 1.0 / required)
    assert feasible[0]
    exact = exact_min_power_total(snapshot, 1.0 / (1.0 / required))
    assert total[0] == pytest.approx(exact, rel=1e-12)  # this kernel sums no cancelling terms


def live_gamma_sum(snapshot):
    return float(np.sum(snapshot.gamma[snapshot.s > 0]))


@given(snapshots(), st.one_of(st.floats(0.001, 0.999), st.floats(1.0, 10.0)))
@example(ff.Snapshot.from_arrays(1.0, [0.757], [1e5]), 2.0 / 0.757)  # d0 0.5, floor 1.32
def test_equal_budget_kernel_meets_the_target_and_no_less_does(snapshot, share):
    d0 = 1.0 / (share * live_gamma_sum(snapshot))
    budget = _equal_budget_batch(*row_arrays(snapshot), 1.0, d0)[0]
    if share >= 1.0:  # d0 at or below the floor; within rounding of it either side is right
        assert budget == math.inf or share < 1.0 + 1e-12
        return
    assert ff.equal_power_mse(snapshot, budget) <= d0 * (1 + 1e-15)
    assert ff.equal_power_mse(snapshot, budget * (1 - 1e-9)) > d0


@given(snapshots(), st.floats(0.001, 0.999))
def test_l2_allocation_meets_the_target_with_no_more_squared_power(snapshot, share):
    d0 = 1.0 / (share * live_gamma_sum(snapshot))
    l2 = ff.l2_min_power_allocation(snapshot, d0)
    assert ff.blue_mse(snapshot, l2) == pytest.approx(d0, rel=1e-12)
    cheapest, _ = ff.min_power_allocation(snapshot, d0)
    squares = [float(np.sum(a.transmit_powers(snapshot) ** 2)) for a in (l2, cheapest)]
    assert squares[0] <= squares[1] * (1 + 1e-12)
