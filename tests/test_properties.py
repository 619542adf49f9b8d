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
# Exact ties and unbounded caps too.
cap_scales = st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]), st.floats(1.0, 4.0))


def row_arrays(snapshot):
    return snapshot.gamma[None, :], snapshot.s[None, :]


# Fixed relative tolerance of the properties: the closed forms sum non-negative steps, so only
# their roundings separate two solvers.
REL = 1e-12


@given(snapshots(), budgets, cap_scales)
@example(ff.Snapshot.from_arrays(1.0, [100.0], [0.01]), 1e-3, 2.0)  # sum(gamma) - a/c cancels here
@example(  # flat segment: two capped sensors spend exactly P, so B's slope is 0 there
    ff.Snapshot.from_arrays(
        1.0,
        [1.0271654483744308, 170.71520286367354, 14.786791250787967],
        [248.6645013234583, 231.14877083203743, 5827.3666201711885],
    ),
    1e-2,
    1.5,
)
@example(  # the caps cannot absorb P: every live sensor at its cap
    ff.Snapshot.from_arrays(
        1.0,
        [69.56722444681833, 1.9938255166221521, 92.179776498321],
        [0.0, 59178.05945948221, 298.6940312492596],
    ),
    1e-2,
    1.05,
)
@example(  # a cap summed into the offset would round to the ulp of the capped sensor's gamma/eta
    ff.Snapshot.from_arrays(
        1.0,
        [0.7674946678863517, 1.0, 47.835129054552525, 1.000000000000023, 9017.628193449871],
        [0.0, 0.0, 0.0, 0.014010762048336787, 0.03058104672072023],
    ),
    0.004288358793007275,
    3.713443066606137,
)
def test_capped_batch_kernel_matches_row_solver(snapshot, p_tot, cap_scale):
    cap = cap_scale * p_tot / snapshot.k
    capped, _ = ff.max_performance_with_caps(snapshot, p_tot, ff.CapVector.uniform(snapshot.k, cap))
    batch = capped_mse_batch(*row_arrays(snapshot), 1.0, p_tot, cap)[0]
    assert batch == pytest.approx(ff.blue_mse(snapshot, capped), rel=REL)


@given(snapshots(), budgets, cap_scales)
def test_optimal_beats_capped_beats_equal(snapshot, p_tot, cap_scale):
    gamma, s = row_arrays(snapshot)
    optimal = sum_power_mse_batch(gamma, s, 1.0, p_tot)[0][0]
    capped = capped_mse_batch(gamma, s, 1.0, p_tot, cap_scale * p_tot / snapshot.k)[0]
    equal = equal_power_mse_batch(gamma, s, 1.0, p_tot)[0]
    assert optimal <= capped * (1 + REL)
    assert capped <= equal * (1 + REL)


SPEND_REL = 1e-12


@given(snapshots(), budgets)
def test_sum_power_allocation_spends_its_budget(snapshot, p_tot):
    allocation, _ = ff.max_performance_allocation(snapshot, p_tot)
    assert allocation.total_power(snapshot) == pytest.approx(p_tot, rel=SPEND_REL)


@given(snapshots(), budgets, st.floats(1.0, 100.0))
def test_optimal_distortion_does_not_grow_with_budget(snapshot, p_tot, factor):
    gamma, s = row_arrays(snapshot)
    mse = [sum_power_mse_batch(gamma, s, 1.0, p)[0][0] for p in (p_tot, p_tot * factor)]
    assert mse[1] <= mse[0] * (1 + REL)


# The round trip is ill-conditioned near the floor: a rounding of the distortion target moves the
# cheapest power by about eps * mse / (mse - floor) relative, 6.5e-12 at gamma 1, s 100 and
# P 1000 W even with exact kernels.
ROUND_TRIP_REL = 1e-9


@given(snapshots(), budgets)
def test_min_power_at_the_optimal_distortion_round_trips(snapshot, p_tot):
    allocation, _ = ff.max_performance_allocation(snapshot, p_tot)
    cheapest, _ = ff.min_power_allocation(snapshot, ff.blue_mse(snapshot, allocation))
    assert cheapest.total_power(snapshot) == pytest.approx(p_tot, rel=ROUND_TRIP_REL)


#: Adjacent budgets of the search that found optimal distortions rising with the budget:
#: 400 budgets over 1e-14..1e2 W.
BUDGET_STEP = 10.0 ** (16 / 399)


@given(
    st.sampled_from([1, 3, 20]).flatmap(
        lambda k: st.tuples(st.lists(log_uniform(-2, 18), min_size=k, max_size=k),
                            st.lists(log_uniform(-3, 8), min_size=k, max_size=k))
    ),
    log_uniform(-14, 2),
)
@example(  # the old closed form read 2.438 at this budget and 2.667 one step up
    ([0.2097248702967326, 670417885968256.8, 0.2156751830664846],
     [13.899745940081491, 0.1494446240748971, 12576.07701457387]),
    1.18901674244199,
)
def test_optimal_distortion_never_rises_with_the_budget(rows, p_tot):
    # Exactly: no tolerance, over huge gammas and tiny budgets.
    gamma, s = (np.array([x]) for x in rows)
    mse = [sum_power_mse_batch(gamma, s, 1.0, p)[0][0] for p in (p_tot, p_tot * BUDGET_STEP)]
    assert mse[1] <= mse[0]


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
