import math
from fractions import Fraction

import numpy as np
import pytest

import fadefusion as ff
from fadefusion import allocation
from fadefusion.allocation import (
    _capped_mse,
    _cumsum_sensors,
    _equal_budget_batch,
    _live_total,
    _min_power_cut,
    _min_power_total,
    _rank_scan,
    _waterfill_mse,
    _waterfill_rows,
    capped_mse_batch,
    equal_power_mse_batch,
    min_power_total_batch,
    sum_power_mse_batch,
)
from helpers import (
    clipping_oracle,
    exact_waterfill,
    l2_grid_oracle,
    min_power_dual_oracle,
    numeric_reference_allocation,
    optimality_certificate,
    random_snapshot,
)


def snap(gamma, s, sig=1.0):
    return ff.Snapshot.from_arrays(sig, gamma, s)


def ranking(snapshot):
    return allocation._rank_row(snapshot)[0]


class TestRanking:
    def test_descending_merit(self):
        s1 = snap([1.0] * 3, [6.0, 2.0, 4.0])  # eta = (3, 1, 2)
        np.testing.assert_array_equal(ranking(s1), [0, 2, 1])

    def test_ties_keep_original_order(self):
        s1 = snap([1.0] * 4, [4.0, 2.0, 4.0, 4.0])
        np.testing.assert_array_equal(ranking(s1), [0, 2, 3, 1])

    def test_random_orders_hold_the_usable_sensors(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            live = random_snapshot(rng)
            s1 = snap(live.gamma, np.where(rng.random(live.k) < 0.3, 0.0, live.s))
            order = ranking(s1)
            merits = s1.eta[order]
            assert np.all(np.diff(merits) <= 0) and np.all(merits > 0)
            assert sorted(order) == list(np.flatnonzero(s1.eta > 0))
            assert merits == pytest.approx(sorted(s1.eta[s1.eta > 0], reverse=True))


class TestMaxPerformance:
    def test_single_sensor_takes_whole_budget(self):
        s1 = snap([100.0], [1.0])
        alloc, diag = ff.max_performance_allocation(s1, 101.0)
        assert alloc.alpha_prime[0] == pytest.approx(100.0, rel=1e-12)
        assert diag.active_count == 1

    def test_homogeneous_matches_equal_split(self):
        s1 = snap([5.0] * 4, [2.0] * 4)
        alloc, diag = ff.max_performance_allocation(s1, 6.0)
        assert diag.active_count == 4
        assert alloc.alpha_prime == pytest.approx(
            ff.equal_allocation(s1, 6.0).alpha_prime, rel=1e-12
        )

    def test_poor_sensor_is_shut_off(self):
        s1 = snap([50.0, 80.0, 60.0, 90.0], [8.0, 5.0, 4.0, 0.02])
        alloc, diag = ff.max_performance_allocation(s1, 10.0)
        assert alloc.alpha_prime[3] == 0.0
        assert diag.active_count == 3
        reference = numeric_reference_allocation(s1, 10.0)
        assert ff.blue_mse(s1, alloc) == pytest.approx(
            ff.blue_mse(s1, reference), rel=1e-6
        )

    def test_budget_is_tight(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s1 = random_snapshot(rng)
            p_tot = float(10 ** rng.uniform(-1, 2))
            alloc, _ = ff.max_performance_allocation(s1, p_tot)
            assert alloc.total_power(s1) == pytest.approx(p_tot, rel=1e-10)

    def test_kkt_certificate(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            s1 = random_snapshot(rng)
            p_tot = float(10 ** rng.uniform(-1, 2))
            alloc, diag = ff.max_performance_allocation(s1, p_tot)
            stationarity, complementarity = optimality_certificate(s1, alloc, diag)
            assert np.max(stationarity) <= 1e-8
            assert np.min(complementarity) >= -1e-8 * diag.dual_value

    def test_activity_is_a_merit_threshold(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            s1 = random_snapshot(rng)
            alloc, diag = ff.max_performance_allocation(s1, float(10 ** rng.uniform(-1, 1)))
            active = np.array(alloc.alpha_prime) > 0
            cutoff = 1.0 / diag.threshold_constant**2
            assert np.all(active == (s1.eta > cutoff * (1 + 1e-12)))

    def test_dominates_equal_power(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            s1 = random_snapshot(rng)
            p_tot = float(10 ** rng.uniform(-1, 2))
            alloc, diag = ff.max_performance_allocation(s1, p_tot)
            optimal = ff.blue_mse(s1, alloc)
            equal = ff.equal_power_mse(s1, p_tot)
            assert optimal <= equal * (1 + 1e-12)
            if diag.active_count < s1.k and s1.k > 1:
                assert optimal < equal

    def test_errors(self):
        with pytest.raises(ff.NoUsableSensor):
            ff.max_performance_allocation(snap([1.0, 2.0], [0.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            ff.max_performance_allocation(snap([1.0], [1.0]), 0.0)
        noiseless = ff.Snapshot(ff.SignalPrior(1.0), [ff.NOISELESS], [1.0])
        with pytest.raises(ValueError):
            ff.max_performance_allocation(noiseless, 1.0)

    def test_a_budget_below_the_old_resolution_gets_its_exact_budget(self):
        # P*eta/gamma ~ 1e-21, where c*sqrt(eta) - 1 rounded to 0: the top sensor alone is on,
        # below the other's turn-on budget, and takes P as alpha' = P/(1 + 1/gamma).
        s1 = snap([10.0, 5.0], [1.0, 0.5])
        alloc, diag = ff.max_performance_allocation(s1, 1e-20)
        assert alloc.alpha_prime[0] == pytest.approx(1e-20 / 1.1, rel=1e-15)
        assert alloc.alpha_prime[1] == 0.0 and diag.active_count == 1

    def test_a_budget_that_rounds_away_against_w_is_spent_exactly(self):
        # gamma/eta + P == gamma/eta: the budgets no longer go through w + P.
        s1 = snap([1.0], [1.0])
        alloc, _ = ff.max_performance_allocation(s1, 1e-30)
        assert alloc.total_power(s1) == pytest.approx(1e-30, rel=1e-15)

    def test_a_small_budget_is_spent_not_overspent(self):
        # c*sqrt(eta) - 1 moved the spend in steps of (gamma/eta) eps, here 8e-12 W: the solve
        # spent 4.8 times its budget.
        s1 = snap([2411.7], [0.067])
        alloc, _ = ff.max_performance_allocation(s1, 5e-12)
        assert alloc.total_power(s1) == pytest.approx(5e-12, rel=1e-12)

    def test_a_budget_near_the_old_resolution_is_not_all_zeros(self):
        # c0*sqrt(eta) - 1 rounded to 0 for the one sensor on: every budget came out 0.
        s1 = snap([1460.865919914544, 0.28301997325650724],
                  [5.438668327836193, 0.06019013992007565])
        alloc, diag = ff.max_performance_allocation(s1, 8.478074357896895e-14)
        assert diag.active_count == 1
        assert alloc.total_power(s1) == pytest.approx(8.478074357896895e-14, rel=1e-12)


class TestMaxPerformanceWithCaps:
    def test_unbounded_caps_reduce_to_uncapped(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            s1 = random_snapshot(rng)
            p_tot = float(10 ** rng.uniform(-1, 1))
            capped, _ = ff.max_performance_with_caps(s1, p_tot, ff.CapVector.unbounded(s1.k))
            plain, _ = ff.max_performance_allocation(s1, p_tot)
            assert capped.alpha_prime == pytest.approx(plain.alpha_prime, rel=1e-12, abs=1e-15)

    def test_caps_at_equal_share_force_equal_allocation(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            s1 = random_snapshot(rng, k=5)
            p_tot = float(10 ** rng.uniform(-1, 1))
            caps = ff.CapVector.uniform(5, p_tot / 5)
            alloc, _ = ff.max_performance_with_caps(s1, p_tot, caps)
            assert alloc.alpha_prime == pytest.approx(
                ff.equal_allocation(s1, p_tot).alpha_prime, rel=1e-10
            )

    def test_six_sensor_reference_share_cap(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            s1 = random_snapshot(rng, k=6)
            p_tot = float(10 ** rng.uniform(-1, 1))
            caps = ff.CapVector.uniform(6, 1.5 * p_tot / 6)
            alloc, _ = ff.max_performance_with_caps(s1, p_tot, caps)
            capped_mse = ff.blue_mse(s1, alloc)
            uncapped, _ = ff.max_performance_allocation(s1, p_tot)
            assert capped_mse >= ff.blue_mse(s1, uncapped) * (1 - 1e-12)
            assert capped_mse <= ff.equal_power_mse(s1, p_tot) * (1 + 1e-12)
            reference = numeric_reference_allocation(s1, p_tot, caps)
            assert capped_mse == pytest.approx(ff.blue_mse(s1, reference), rel=1e-6)

    def test_insufficient_caps_leave_budget_slack(self):
        s1 = snap([10.0, 20.0], [1.0, 2.0])
        caps = ff.CapVector.uniform(2, 0.5)
        alloc, _ = ff.max_performance_with_caps(s1, 10.0, caps)
        assert alloc.total_power(s1) == pytest.approx(1.0, rel=1e-12)
        assert alloc.transmit_powers(s1) == pytest.approx([0.5, 0.5], rel=1e-12)

    def test_a_budget_left_after_clipping_that_rounds_away_against_w_is_spent(self):
        # Clipping leaves 1e-13 W, above the loop's 1e-14 W dust, which rounds away against the
        # free sensor's gamma/eta of 2e3 (w + P == w): the free sensor still takes all of it.
        s1 = snap([1.0, 1.0, 1.0], [100.0, 100.0, 1e-3])
        caps = ff.CapVector((0.5, 0.4999999999999, 1.0))
        alloc, diag = ff.max_performance_with_caps(s1, 1.0, caps)
        np.testing.assert_array_equal(alloc.alpha_prime[:2], caps.alpha_limits(s1)[:2])
        left = 1.0 - (0.5 + 0.4999999999999)
        assert alloc.alpha_prime[2] == pytest.approx(left / 2.0, rel=1e-15)
        assert diag.active_count == 3 and math.isfinite(diag.threshold_constant)
        reference = numeric_reference_allocation(s1, 1.0, caps)
        assert ff.blue_mse(s1, alloc) == pytest.approx(ff.blue_mse(s1, reference), rel=1e-12)

    def test_unbounded_caps_spend_a_budget_below_the_old_resolution(self):
        s1 = snap([1.0], [1.0])
        capped, _ = ff.max_performance_with_caps(s1, 1e-30, ff.CapVector.unbounded(1))
        plain, _ = ff.max_performance_allocation(s1, 1e-30)
        assert capped.alpha_prime.tobytes() == plain.alpha_prime.tobytes()
        assert capped.total_power(s1) == pytest.approx(1e-30, rel=1e-15)

    def test_a_remainder_below_the_old_resolution_goes_to_the_free_sensor(self):
        # The second sensor's gamma/eta of 2e3 swallowed the 5e-14 W left after the first one's
        # cap, and the remainder could add half the fused SNR, so the solve raised.
        s1 = snap([1.0, 1.0], [100.0, 1e-3])
        caps = ff.CapVector((0.5e-13, 1.0))
        alloc, _ = ff.max_performance_with_caps(s1, 1e-13, caps)
        assert alloc.alpha_prime == pytest.approx([2.5e-14, 2.5e-14], rel=1e-12)
        reference = numeric_reference_allocation(s1, 1e-13, caps)
        assert alloc.alpha_prime == pytest.approx(reference.alpha_prime, rel=1e-6)

    def test_caps_never_exceeded_and_budget_tight(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            s1 = random_snapshot(rng)
            p_tot = float(10 ** rng.uniform(-1, 1))
            cap = float(rng.uniform(0.2, 2.0)) * p_tot / s1.k
            alloc, _ = ff.max_performance_with_caps(s1, p_tot, ff.CapVector.uniform(s1.k, cap))
            powers = alloc.transmit_powers(s1)
            assert np.all(powers <= cap * (1 + 1e-12))
            assert powers.sum() == pytest.approx(min(p_tot, cap * s1.k), rel=1e-10)


#: max_performance_with_caps results recorded from ``helpers.clipping_oracle``, the clipping loop
#: that takes each pass's clipped caps off the budget in turn: (gamma, s, total power, caps) ->
#: (alpha' as float.hex, active count, threshold and dual value as float.hex).  The names of the
#: last three problems describe the budgets that the waterfill could not resolve while it
#: evaluated c*sqrt(eta) - 1.
PINNED_CAPPED = {
    "per-sensor caps, merit ties and a dead sensor": (
        ((10.0, 10.0, 5.0, 20.0, 10.0), (2.0, 2.0, 0.0, 1.0, 2.0), 1.0,
         (0.3, 0.2, 0.5, 1.0, 0.25)),
        (["0x1.1745d1745d174p-2", "0x1.745d1745d1746p-3", "0x0.0p+0", "0x1.e79e79e79e7a2p-3",
          "0x1.d1745d1745d17p-3"],
         4, "0x1.0971dfb692019p+0", "0x1.dc3690eb45a02p-1"),
    ),
    "five clip passes": (
        ((5.06, 13.21, 1.67, 4.16, 85.54, 55.67, 12.54, 2.3),
         (5.291, 1.733, 0.423, 0.27, 1.03, 0.3, 0.258, 7.524), 2.85,
         (0.3457, 1.05, 0.6122, 0.1564, 0.5806, 0.1747, 0.1296, 0.1645)),
        (["0x1.2794dc4c15e7ap-2", "0x1.f3c47a12a9fe9p-1", "0x1.0354820c17759p-2", "0x0.0p+0",
          "0x1.25d5095143130p-1", "0x1.5f78dc0f6a955p-3", "0x1.eba2dba91a14ap-4",
          "0x1.d59cd3c033a26p-4"],
         7, "0x1.08d00e428cbd0p+1", "0x1.de7d41a90d557p-3"),
    ),
    "six clip passes": (
        ((2.21, 26.64, 20.76, 17.04, 57.88, 1.93, 91.55, 21.5, 36.37, 8.42, 38.85, 4.34),
         (1.976, 1.621, 7.036, 0.174, 2.561, 5.304, 0.114, 6.917, 4.59, 7.123, 2.147, 5.047),
         3.75,
         (0.1763, 0.31, 0.1213, 0.1205, 0.914, 0.2977, 0.7349, 0.4182, 0.3353, 0.1525, 0.4453,
          0.9602)),
        (["0x0.0p+0", "0x1.31f487af0746bp-2", "0x1.da03092e0b3a6p-4", "0x0.0p+0",
          "0x1.cc052a1e18c11p-1", "0x1.919abac37ca1bp-3", "0x0.0p+0", "0x1.99343cd6d94e7p-2",
          "0x1.4e28cffdffbfdp-2", "0x1.172a3e22bdf90p-3", "0x1.bc8b6b9472868p-2",
          "0x1.3a76369c3a564p-1"],
         9, "0x1.b15c5a02fab6ep-1", "0x1.6556da2ff5709p+0"),
    ),
    "nine clip passes at K=20 with ties and dead sensors": (
        ((0.25, 3.33, 0.34, 44.65, 210.0, 210.0, 210.0, 14.39, 0.72, 0.98, 2.09, 6.76, 0.21,
          102.55, 20.71, 1.58, 0.2, 112.91, 0.33, 0.34),
         (0.025, 0.018, 5.238, 0.0, 0.083, 0.083, 0.083, 0.036, 0.202, 4.485, 0.134, 0.0, 0.02,
          1.52, 2.135, 3.001, 1.053, 0.129, 0.016, 0.36),
         0.76,
         (0.02707, 0.0311, 0.05113, 0.07559, 0.09932, 0.02401, 0.02674, 0.08306, 0.06243,
          0.07187, 0.11945, 0.10743, 0.08999, 0.0797, 0.03943, 0.06205, 0.02675, 0.07716,
          0.0769, 0.07192)),
        (["0x0.0p+0", "0x0.0p+0", "0x1.a91bca5a78b25p-7", "0x0.0p+0", "0x1.8222670b63a35p-5",
          "0x1.8783f688d860ap-6", "0x1.b40825399e228p-6", "0x0.0p+0", "0x1.ac2bcb78ddc55p-6",
          "0x1.2367eeed7353fp-5", "0x1.4aeda5170ad57p-4", "0x0.0p+0", "0x0.0p+0",
          "0x1.434c71629184ap-4", "0x1.3421d3bd9060ap-5", "0x1.374af6910617ep-5",
          "0x1.242e6bdc80576p-8", "0x1.3945d7d071e46p-4", "0x0.0p+0", "0x1.2afb296da4585p-6"],
         13, "0x1.bd5bffb506ecbp+1", "0x1.52581b9055a38p-4"),
    ),
    "a 5e-324 cap whose alpha limit rounds to 0": (
        ((1.0, 2.0, 4.0), (1.0, 1.0, 1.0), 0.5, (5e-324, 0.3, 0.4)),
        (["0x0.0p+0", "0x1.1111111111111p-4", "0x1.47ae147ae147bp-2"], 2,
         "0x1.43fc603a308b0p+0", "0x1.3faac16606ed1p-1"),
    ),
    "every cap 5e-324": (
        ((1.0, 1.0), (1.0, 2.0), 1.0, (5e-324, 5e-324)),
        (["0x0.0p+0", "0x0.0p+0"], 0, "nan", "nan"),
    ),
    "a dead sensor whose alpha limit rounds to 0": (
        ((1.0, 1e-308), (1000000.0, 0.0), 1e-15, (math.inf, 2e-16)),
        (["0x1.cd2b297d889bdp-52", "0x0.0p+0"], 1, "0x1.72ba440270593p-10",
         "0x1.e847fff972473p+18"),
    ),
    "a 1e-13 W remainder after clipping is spent": (
        ((1.0, 1.0, 1.0), (100.0, 100.0, 0.001), 1.0, (0.5, 0.4999999999999, 1.0)),
        (["0x1.0000000000000p-2", "0x1.ffffffffff8f7p-3", "0x1.c1fffffffffffp-45"], 3,
         "0x1.65c55827df1d2p+5", "0x1.0624dd2f1a9fbp-11"),
    ),
    "a budget below the resolution with nothing clipped": (
        ((1.0,), (1.0,), 1e-30, (math.inf,)),
        (["0x1.4484bfeebc2a1p-101"], 1, "0x1.6a09e667f3bccp+0", "0x1.0000000000001p-1"),
    ),
    "a remainder that could add more than 1e-12 of the fused SNR": (
        ((1.0, 1.0), (100.0, 0.001), 1e-13, (5e-14, 1.0)),
        (["0x1.c25c268497682p-46", "0x1.c25c268497681p-46"], 2, "0x1.65c55827df1d2p+5",
         "0x1.0624dd2f1a9fbp-11"),
    ),
    "caps that cannot absorb the budget": (
        ((10.0, 20.0), (1.0, 2.0), 10.0, (0.5, 0.5)),
        (["0x1.d1745d1745d17p-2", "0x1.e79e79e79e79ep-2"], 2, "nan", "nan"),
    ),
    "unbounded caps shut a poor sensor off": (
        ((50.0, 80.0, 60.0, 90.0), (8.0, 5.0, 4.0, 0.02), 10.0, (math.inf,) * 4),
        (["0x1.da0884cc0870ap+1", "0x1.0dff4532f4949p+2", "0x1.eb4b9f90b2ccdp+0", "0x0.0p+0"],
         3, "0x1.23263c5eaa3b0p-1", "0x1.8bd6b2e9c3821p+1"),
    ),
    "uniform caps clip the tied leaders": (
        ((5.0, 5.0, 5.0, 1.0), (2.0, 2.0, 2.0, 2.0), 6.0, (1.6, 1.6, 1.6, 1.6)),
        (["0x1.5555555555556p+0", "0x1.5555555555556p+0", "0x1.5555555555556p+0",
          "0x1.3333333333330p-1"],
         4, "0x1.1999999999998p+1", "0x1.a723f789854a6p-3"),
    ),
}


#: The pins whose clipped caps the solver takes off the budget in one sum where the oracle took
#: them off pass by pass: their free budgets move by a few ulps.
PINNED_CAPPED_ONE_SUM = {
    "five clip passes": (
        ["0x1.2794dc4c15e7ap-2", "0x1.f3c47a12a9fe9p-1", "0x1.0354820c1775bp-2", "0x0.0p+0",
         "0x1.25d5095143130p-1", "0x1.5f78dc0f6a955p-3", "0x1.eba2dba91a14ap-4",
         "0x1.d59cd3c033a26p-4"],
        7, "0x1.08d00e428cbd1p+1", "0x1.de7d41a90d553p-3",
    ),
    "six clip passes": (
        ["0x0.0p+0", "0x1.31f487af0746bp-2", "0x1.da03092e0b3a6p-4", "0x0.0p+0",
         "0x1.cc052a1e18c11p-1", "0x1.919abac37ca1bp-3", "0x0.0p+0", "0x1.99343cd6d94e7p-2",
         "0x1.4e28cffdffbfdp-2", "0x1.172a3e22bdf90p-3", "0x1.bc8b6b9472868p-2",
         "0x1.3a76369c3a568p-1"],
        9, "0x1.b15c5a02fab70p-1", "0x1.6556da2ff5705p+0",
    ),
    "nine clip passes at K=20 with ties and dead sensors": (
        ["0x0.0p+0", "0x0.0p+0", "0x1.a91bca5a78b25p-7", "0x0.0p+0", "0x1.8222670b63a2cp-5",
         "0x1.8783f688d860ap-6", "0x1.b40825399e228p-6", "0x0.0p+0", "0x1.ac2bcb78ddc55p-6",
         "0x1.2367eeed7353fp-5", "0x1.4aeda5170ad57p-4", "0x0.0p+0", "0x0.0p+0",
         "0x1.434c71629184ap-4", "0x1.3421d3bd9060ap-5", "0x1.374af6910617ep-5",
         "0x1.242e6bdc80576p-8", "0x1.3945d7d071e46p-4", "0x0.0p+0", "0x1.2afb296da4585p-6"],
        13, "0x1.bd5bffb506ecbp+1", "0x1.52581b9055a38p-4",
    ),
}


def pinned_result(solve, name):
    """A pinned problem's result in PINNED_CAPPED's form, solved by ``solve``."""
    (gamma, s, total_power, caps), _ = PINNED_CAPPED[name]
    try:
        alloc, diag = solve(snap(gamma, s), total_power, ff.CapVector(caps))[:2]
    except ff.InternalConsistencyError as exc:
        return type(exc).__name__, str(exc)
    alphas = [x.hex() for x in alloc.alpha_prime.tolist()]
    return alphas, diag.active_count, diag.threshold_constant.hex(), diag.dual_value.hex()


@pytest.mark.parametrize("name", PINNED_CAPPED)
def test_capped_allocations_keep_their_bytes(name):
    expected = PINNED_CAPPED_ONE_SUM.get(name, PINNED_CAPPED[name][1])
    assert pinned_result(ff.max_performance_with_caps, name) == expected


@pytest.mark.parametrize("name", PINNED_CAPPED)
def test_the_clipping_oracle_keeps_the_pinned_bytes(name):
    assert pinned_result(clipping_oracle, name) == PINNED_CAPPED[name][1]


def ulps_apart(x: float, y: float) -> int:
    """Floats between two non-negative floats, 0 for two NaNs."""
    if math.isnan(x) and math.isnan(y):
        return 0
    return abs(int(np.float64(x).view(np.int64)) - int(np.float64(y).view(np.int64)))


@pytest.mark.parametrize("name", PINNED_CAPPED)
def test_the_pins_are_within_16_ulps_of_the_exact_waterfill(name):
    # Both the oracle's and the solver's bytes: the waterfill's roundings, not a lost digit.
    (gamma, s, total_power, caps), oracle = PINNED_CAPPED[name]
    exact = exact_waterfill(snap(gamma, s), total_power, ff.CapVector(caps))
    alpha, active, threshold, dual = exact
    for alphas, count, *constants in (oracle, PINNED_CAPPED_ONE_SUM.get(name, oracle)):
        assert count == active
        for pinned, exact in zip(alphas + constants, alpha + [threshold, dual]):
            assert ulps_apart(float.fromhex(pinned), exact) <= 16


def capped_problems(rng, n, log_budgets=(-3.0, 3.0)):
    """Random capped problems: (snapshot, budget, caps).

    K 1-100, gamma log-uniform over 1e-2..1e4 and s over 1e-3..1e6, 10% dead
    sensors and a quarter of the sensors copied onto others (ties).  The caps
    are per sensor, uniform at 1, 1.5, 2, 3 or U(1, 4) times P/K, or unbounded.
    """
    for _ in range(n):
        k = int(rng.integers(1, 101))
        gamma = 10 ** rng.uniform(-2, 4, k)
        s = np.where(rng.random(k) < 0.1, 0.0, 10 ** rng.uniform(-3, 6, k))
        source, target = rng.integers(0, k, (2, k // 4))
        gamma[target], s[target] = gamma[source], s[source]
        p_tot = float(10 ** rng.uniform(*log_budgets))
        kind = rng.integers(3)
        if kind == 0:
            caps = p_tot / k * 10 ** rng.uniform(-1, 1, k)
        elif kind == 1:
            caps = np.full(k, rng.choice([1.0, 1.5, 2.0, 3.0, rng.uniform(1, 4)]) * p_tot / k)
        else:
            caps = np.full(k, math.inf)
        yield snap(gamma, s), p_tot, caps


def solve_or_error(solve, *problem):
    """``solve(*problem)``, or the type and message of the FadeFusionError it raised."""
    try:
        return solve(*problem)
    except ff.FadeFusionError as exc:
        return type(exc), str(exc)


def result_bytes(result):
    """An allocation result's alpha' bytes and threshold, or the error it raised."""
    if isinstance(result[0], type):
        return result
    alloc, diag = result[:2]
    return alloc.alpha_prime.tobytes(), diag.threshold_constant.hex(), diag.active_count


def plain_loop(snapshot, total_power, caps):
    """``max_performance_with_caps`` without the predicted clipped set."""
    allocation._check_budget(snapshot, total_power)
    limits = caps.alpha_limits(snapshot)
    alpha, threshold = allocation._clip_to_caps(snapshot, total_power, caps.caps, limits, False)
    diagnostics = ff.AllocationDiagnostics(int(np.count_nonzero(alpha > 0)), threshold, math.nan)
    return ff.Allocation(alpha), diagnostics


#: Forced predictions of the clipped set: positions among the free sensors, in rank order.
FORCED_GUESSES = {
    "everything": lambda free: np.arange(free),
    "nothing": lambda free: np.arange(0),
    "the weakest free sensor": lambda free: np.arange(free)[-1:],
}


class TestCappedSolverAgainstTheClippingOracle:
    def test_agrees_with_the_oracle_and_the_batch_kernel(self):
        rng = np.random.default_rng(19)
        for s1, p_tot, cap in capped_problems(rng, 5000):
            caps = ff.CapVector(cap)
            expected = solve_or_error(clipping_oracle, s1, p_tot, caps)
            got = solve_or_error(ff.max_performance_with_caps, s1, p_tot, caps)
            if isinstance(expected[0], type):
                assert got == expected
                continue
            (oracle, oracle_diag, passes), (alloc, diag) = expected, got
            assert diag.active_count == oracle_diag.active_count
            mse = ff.blue_mse(s1, oracle)  # math.isclose: pytest.approx would double the run time
            assert math.isclose(ff.blue_mse(s1, alloc), mse, rel_tol=1e-12)
            scale = 1e-9 * oracle.alpha_prime.max()
            assert abs(alloc.total_power(s1) - oracle.total_power(s1)) <= scale
            assert np.abs(alloc.alpha_prime - oracle.alpha_prime).max() <= scale
            if passes <= 2:  # one clipping pass: the one-sum budget is the oracle's
                assert result_bytes(got) == result_bytes(expected)
                assert diag.dual_value.hex() == oracle_diag.dual_value.hex()
            if (cap == cap[0]).all():
                batch = capped_mse_batch(s1.gamma[None, :], s1.s[None, :], 1.0, p_tot, cap[0])
                assert math.isclose(batch[0], mse, rel_tol=1e-9)

    def test_alloc_scalar_solves_make_at_most_three_waterfills(self, monkeypatch):
        # The alloc-scalar benchmark's capped solves: default network, 100 snapshots per K,
        # budgets 1-25 mW, caps 1.5 P/K.  The clipping loop alone made up to 15 at K=100.
        waterfills = []
        budgets = allocation._prefix_budgets
        monkeypatch.setattr(
            allocation, "_prefix_budgets", lambda *args: waterfills.append(1) or budgets(*args)
        )
        model, rng = ff.default_network(), np.random.default_rng(7)
        for k in (3, 20, 100):
            for trial in range(100):
                s1 = ff.sample_snapshot(model, k, ff.RngStream(7, trial))
                p_tot = float(10 ** rng.uniform(-3.0, math.log10(0.025)))
                waterfills.clear()
                ff.max_performance_with_caps(s1, p_tot, ff.CapVector.uniform(k, 1.5 * p_tot / k))
                assert len(waterfills) <= 3

    @pytest.mark.parametrize("guess", FORCED_GUESSES)
    def test_a_forced_prediction_gives_the_plain_loops_answer(self, monkeypatch, guess):
        # Every clipped set that passes the check gives the plain loop's bytes, because the
        # budget depends only on the clipped set; one that fails it reruns the plain loop.
        refuted = []
        clip_to_caps = allocation._clip_to_caps

        def watched(*args):
            result = clip_to_caps(*args)
            refuted.append(result is None)
            return result

        monkeypatch.setattr(allocation, "_clip_to_caps", watched)
        monkeypatch.setattr(
            allocation, "_predict_clipped", lambda u, *_: FORCED_GUESSES[guess](u.size)
        )
        for s1, p_tot, cap in capped_problems(np.random.default_rng(20), 200):
            caps = ff.CapVector(cap)
            plain = solve_or_error(plain_loop, s1, p_tot, caps)
            got = solve_or_error(ff.max_performance_with_caps, s1, p_tot, caps)
            assert result_bytes(got) == result_bytes(plain)
        assert any(refuted) == (guess == "the weakest free sensor")

    def test_near_the_resolution_it_raises_only_consistency_errors_and_keeps_every_cap(self):
        rng = np.random.default_rng(21)
        for s1, p_tot, cap in capped_problems(rng, 2000, log_budgets=(-16.0, -8.0)):
            if not s1.eta.any():
                continue
            try:
                alloc, _ = ff.max_performance_with_caps(s1, p_tot, ff.CapVector(cap))
            except ff.InternalConsistencyError:
                continue
            assert (alloc.transmit_powers(s1) <= np.nextafter(cap, math.inf)).all()
            # The budget is spent, up to what the live sensors' caps can take.
            spend = min(p_tot, float(np.sum(cap[s1.eta > 0])))
            assert math.isclose(alloc.total_power(s1), spend, rel_tol=1e-12)


class TestMinPower:
    def test_single_sensor_closed_form(self):
        s1 = snap([100.0], [1.0])
        alloc, diag = ff.min_power_allocation(s1, 0.02)
        assert alloc.alpha_prime[0] == pytest.approx(100.0, rel=1e-12)
        assert alloc.total_power(s1) == pytest.approx(101.0, rel=1e-12)
        assert ff.blue_mse(s1, alloc) == pytest.approx(0.02, rel=1e-12)
        assert diag.active_count == 1

    def test_infeasible_target(self):
        s1 = snap([0.6, 0.4], [1.0, 1.0])  # sum gamma = 1, target needs sum r = 2
        with pytest.raises(ff.InfeasibleTarget) as excinfo:
            ff.min_power_allocation(s1, 0.5)
        assert excinfo.value.floor == pytest.approx(1.0, rel=1e-12)

    def test_live_channels_whose_merits_all_underflow_have_no_usable_sensor(self):
        # eta = 3e-75 / (1 + 1e299) rounds to 0, yet s > 0 keeps the floor finite (1e299).
        s1 = snap([1e-299, 2.0], [3e-75, 0.0])
        assert ff.distortion_floor(s1) == pytest.approx(1e299, rel=1e-12)
        with pytest.raises(ff.NoUsableSensor, match="all channel merits are zero"):
            ff.min_power_allocation(s1, 1e301)

    @pytest.mark.parametrize("solve", [ff.min_power_allocation, ff.l2_min_power_allocation])
    def test_a_noiseless_sensor_is_refused_before_the_floor_check(self, solve):
        # The dead noiseless sensor leaves the floor at 0.5, above the target.
        s1 = snap([ff.NOISELESS, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite observation SNRs"):
            solve(s1, 0.1)

    def test_meets_the_target_next_to_a_huge_gamma(self):
        # c*sqrt(eta) - 1 rounded the 1e20 sensor's budget to 0, and the distortion read 1.8.
        s1 = snap([3.0, 1e20, 5.0], [2.0, 1.0, 0.5])
        alloc, diag = ff.min_power_allocation(s1, 0.1)
        assert diag.active_count == 2
        assert ff.blue_mse(s1, alloc) == pytest.approx(0.1, rel=1e-12)

    def test_matches_dual_bisection_oracle(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 50:
            s1 = random_snapshot(rng, k=5)
            d0 = float(ff.distortion_floor(s1) * 10 ** rng.uniform(0.1, 1.5))
            alloc, _ = ff.min_power_allocation(s1, d0)
            _, oracle_total = min_power_dual_oracle(s1, d0)
            assert alloc.total_power(s1) == pytest.approx(oracle_total, rel=1e-6)
            checked += 1

    def test_target_is_tight(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            s1 = random_snapshot(rng)
            d0 = float(ff.distortion_floor(s1) * 10 ** rng.uniform(0.05, 2.0))
            alloc, _ = ff.min_power_allocation(s1, d0)
            assert ff.blue_mse(s1, alloc) == pytest.approx(d0, rel=1e-9)

    def test_duality_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            s1 = random_snapshot(rng)
            p_tot = float(10 ** rng.uniform(-1, 2))
            fwd, fwd_diag = ff.max_performance_allocation(s1, p_tot)
            best = ff.blue_mse(s1, fwd)
            back, back_diag = ff.min_power_allocation(s1, best)
            assert back.total_power(s1) == pytest.approx(p_tot, rel=1e-8)
            assert fwd_diag.active_count == back_diag.active_count
            fwd_active = np.array(fwd.alpha_prime) > 0
            back_active = np.array(back.alpha_prime) > 0
            assert np.array_equal(fwd_active, back_active)

    def test_scaling_prior_and_target_together_is_invariant(self):
        rng = np.random.default_rng(22)
        s1 = random_snapshot(rng, k=4)
        d0 = float(ff.distortion_floor(s1) * 3)
        base, _ = ff.min_power_allocation(s1, d0)
        for factor in (0.25, 8.0):
            scaled = ff.Snapshot(ff.SignalPrior(factor * s1.prior.variance_theta), s1.gamma, s1.s)
            alloc, _ = ff.min_power_allocation(scaled, factor * d0)
            assert alloc.alpha_prime == pytest.approx(base.alpha_prime, rel=1e-12)

    def test_printed_reciprocal_form_misses_target(self):
        # The threshold scan is consistent with alpha' = (gamma/s)(rho0*sqrt(eta)-1);
        # flipping rho0 to the reciprocal position breaks target tightness on
        # heterogeneous inputs even though it coincides for rho0 = 1.
        s1 = snap([100.0, 50.0, 2.0], [1e5, 3e4, 10.0])
        d0 = 0.03
        mine, diag = ff.min_power_allocation(s1, d0)
        assert ff.blue_mse(s1, mine) == pytest.approx(d0, rel=1e-9)
        rho0 = diag.threshold_constant
        r_flipped = s1.gamma * np.maximum(1.0 - rho0 / np.sqrt(s1.eta), 0.0)
        total = r_flipped.sum()
        flipped_mse = math.inf if total == 0 else 1.0 / total
        assert abs(flipped_mse - d0) > 0.1 * d0


class TestL2MinPower:
    def test_homogeneous_matches_plain_min_power(self):
        s1 = snap([4.0] * 3, [2.0] * 3)
        d0 = 0.5
        l2 = ff.l2_min_power_allocation(s1, d0)
        l1, _ = ff.min_power_allocation(s1, d0)
        assert l2.alpha_prime == pytest.approx(l1.alpha_prime, rel=1e-9)

    def test_single_sensor_matches_plain_min_power(self):
        s1 = snap([10.0], [3.0])
        l2 = ff.l2_min_power_allocation(s1, 0.4)
        l1, _ = ff.min_power_allocation(s1, 0.4)
        assert l2.alpha_prime == pytest.approx(l1.alpha_prime, rel=1e-9)

    def test_trades_total_power_for_flatness(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            s1 = random_snapshot(rng, k=4)
            d0 = float(ff.distortion_floor(s1) * 10 ** rng.uniform(0.2, 1.0))
            p_l2 = ff.l2_min_power_allocation(s1, d0).transmit_powers(s1)
            p_l1, _ = ff.min_power_allocation(s1, d0)
            p_l1 = p_l1.transmit_powers(s1)
            assert np.sum(p_l2**2) <= np.sum(p_l1**2) * (1 + 1e-9)
            assert np.sum(p_l2) >= np.sum(p_l1) * (1 - 1e-9)

    def test_meets_target_and_beats_grid_oracle(self):
        rng = np.random.default_rng(24)
        for k in (2, 3):
            for _ in range(5):
                s1 = random_snapshot(rng, k=k)
                d0 = float(ff.distortion_floor(s1) * 10 ** rng.uniform(0.2, 1.0))
                alloc = ff.l2_min_power_allocation(s1, d0)
                assert ff.blue_mse(s1, alloc) == pytest.approx(d0, rel=1e-9)
                p = alloc.transmit_powers(s1)
                assert float(np.sum(p * p)) <= l2_grid_oracle(s1, d0) * (1 + 1e-3)

    def test_stationarity_residuals(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            s1 = random_snapshot(rng, k=5)
            d0 = float(ff.distortion_floor(s1) * 10 ** rng.uniform(0.2, 1.2))
            alloc = ff.l2_min_power_allocation(s1, d0)
            r = ff.signal_contributions(s1, alloc)
            live = r > 0
            marginal = (
                2.0 * s1.eta[live] ** -2 * r[live] * s1.gamma[live] ** 3
                / (s1.gamma[live] - r[live]) ** 3
            )
            mid = np.median(marginal)
            assert np.max(np.abs(marginal - mid)) <= 1e-9 * mid
            assert np.sum(r) == pytest.approx(1.0 / d0, rel=1e-9)

    def test_infeasible_target(self):
        with pytest.raises(ff.InfeasibleTarget):
            ff.l2_min_power_allocation(snap([0.6, 0.4], [1.0, 1.0]), 0.5)

    def test_live_channels_whose_merits_all_underflow_have_no_usable_sensor(self):
        # Such a snapshot used to get an all-zero allocation, whose distortion is inf.
        with pytest.raises(ff.NoUsableSensor, match="all channel merits are zero"):
            ff.l2_min_power_allocation(snap([1e-299, 2.0], [3e-75, 0.0]), 1e301)


class TestNumericReference:
    def test_single_sensor(self):
        s1 = snap([100.0], [1.0])
        alloc = numeric_reference_allocation(s1, 101.0)
        assert alloc.alpha_prime[0] == pytest.approx(100.0, rel=1e-8)

    def test_homogeneous_equal_split(self):
        s1 = snap([5.0] * 4, [2.0] * 4)
        alloc = numeric_reference_allocation(s1, 6.0)
        assert alloc.alpha_prime == pytest.approx(
            ff.equal_allocation(s1, 6.0).alpha_prime, rel=1e-8, abs=1e-10
        )

    def test_tracks_closed_form_distortion(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            s1 = random_snapshot(rng)
            p_tot = float(10 ** rng.uniform(-1, 1.5))
            closed, _ = ff.max_performance_allocation(s1, p_tot)
            reference = numeric_reference_allocation(s1, p_tot)
            assert ff.blue_mse(s1, reference) == pytest.approx(
                ff.blue_mse(s1, closed), rel=1e-6
            )

    def test_no_usable_sensor(self):
        with pytest.raises(ff.NoUsableSensor):
            numeric_reference_allocation(snap([1.0], [0.0]), 1.0)


class TestBatchKernels:
    def test_batch_matches_object_solvers(self):
        rng = np.random.default_rng(27)
        n, p_tot = 64, 3.0
        for k in (3, 20, 100):
            gamma = 10 ** rng.uniform(-0.3, 2.3, (n, k))
            s = 10 ** rng.uniform(-1.3, 1.3, (n, k))
            dead = rng.random((n // 2, k)) < 0.5
            dead[:, 0] = False
            s[: n // 2][dead] = 0.0  # dead sensors in half the rows
            s[:4, 1:] = 0.0  # one live sensor: the caps cannot absorb the budget
            mse_opt, k1 = sum_power_mse_batch(gamma, s, 1.0, p_tot)
            mse_eq = equal_power_mse_batch(gamma, s, 1.0, p_tot)
            mse_cap = {
                scale: capped_mse_batch(gamma, s, 1.0, p_tot, scale * p_tot / k)
                for scale in (1.05, 1.5, 3.0)
            }
            floors = 1.0 / np.where(s > 0, gamma, 0.0).sum(axis=1)
            d0 = float(floors.max() * 2.0)
            total_min, k1_min, feasible = min_power_total_batch(gamma, s, 1.0, d0)
            assert feasible.all()
            for i in range(n):
                s1 = ff.Snapshot.from_arrays(1.0, gamma[i], s[i])
                alloc, diag = ff.max_performance_allocation(s1, p_tot)
                assert mse_opt[i] == pytest.approx(ff.blue_mse(s1, alloc), rel=1e-12)
                assert k1[i] == diag.active_count
                assert mse_eq[i] == pytest.approx(ff.equal_power_mse(s1, p_tot), rel=1e-12)
                for scale, mse in mse_cap.items():
                    capped, _ = ff.max_performance_with_caps(
                        s1, p_tot, ff.CapVector.uniform(k, scale * p_tot / k)
                    )
                    assert mse[i] == pytest.approx(ff.blue_mse(s1, capped), rel=1e-12)
                mp, mp_diag = ff.min_power_allocation(s1, d0)
                assert total_min[i] == pytest.approx(mp.total_power(s1), rel=1e-12)
                assert k1_min[i] == mp_diag.active_count

    def test_caps_that_spend_exactly_the_budget_run_at_their_caps(self):
        # Two live caps of P/2 and a dead sensor: the second cap is reached only on the budget
        # the first leaves, where rounding can leave it short, and every live sensor must sit
        # exactly at its cap.
        gamma = np.array([[100.0, 100.0, 100.0]])
        s = np.array([[0.0, 3742.33867768937, 78145.29984977255]])
        cap = 1.5 * 1e-2 / 3
        x = cap * s / (1.0 + 1.0 / gamma)
        assert capped_mse_batch(gamma, s, 1.0, 1e-2, cap)[0] == 1.0 / np.sum(x / (x / gamma + 1.0))

    def test_caps_that_round_above_the_budget_are_not_an_overspend(self):
        # Two caps of 1.5 P/3 sum to P plus one ulp: that is rounding, not caps that spend more
        # than the budget.
        gamma = np.array([[100.0, 100.0, 100.0]])
        s = np.array([[16699.86323353335, 10467.67094415904, 223078.92748800467]])
        p_tot, cap = 0.003, 1.5 * 0.003 / 3
        assert 2 * cap > p_tot
        row = snap(gamma[0], s[0])
        capped, _ = ff.max_performance_with_caps(row, p_tot, ff.CapVector.uniform(3, cap))
        mse = capped_mse_batch(gamma, s, 1.0, p_tot, cap)[0]
        assert mse == pytest.approx(ff.blue_mse(row, capped), rel=1e-12)

    def test_a_budget_the_breakpoint_spend_lost_is_not_an_outage(self):
        # At this gamma a breakpoint spend summed as slope * c - offset cancels, and a kernel
        # that solved on the segment it found read this feasible row as an outage.
        gamma = np.array([[54857213854.80541, 2487.334967287267]])
        s = np.array([[0.0038579441124983343, 2.3151892105081067]])
        p_tot, cap = 1.6e-6, 1.2e-6
        row = snap(gamma[0], s[0])
        capped, _ = ff.max_performance_with_caps(row, p_tot, ff.CapVector.uniform(2, cap))
        expected = ff.blue_mse(row, capped)
        assert expected == pytest.approx(359886.51, rel=1e-7)
        assert capped_mse_batch(gamma, s, 1.0, p_tot, cap)[0] == pytest.approx(expected, rel=1e-12)

    def test_unbounded_caps_give_the_uncapped_optimum(self):
        # An infinite cap never binds.  Rows: all sensors on, a dead sensor, a dead row.
        gamma = np.array([[1.0, 1.0], [2.0, 3.0], [2.0, 3.0], [2.0, 3.0]])
        s = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 4.0], [0.0, 0.0]])
        for budget in (1e-3, 1.0, 1e3):
            capped = capped_mse_batch(gamma, s, 1.0, budget, math.inf)
            optimal = sum_power_mse_batch(gamma, s, 1.0, budget)[0]
            assert capped[:3] == pytest.approx(optimal[:3], rel=1e-12)
            assert math.isinf(capped[3]) and math.isinf(optimal[3])

    def test_batch_handles_dead_rows(self):
        gamma = np.array([[2.0, 3.0], [2.0, 3.0]])
        s = np.array([[0.0, 0.0], [1.0, 1.0]])
        mse, k1 = sum_power_mse_batch(gamma, s, 1.0, 1.0)
        assert math.isinf(mse[0]) and k1[0] == 0
        assert math.isfinite(mse[1])
        total, k1m, feasible = min_power_total_batch(gamma, s, 1.0, 0.6)
        assert not feasible[0] and math.isinf(total[0])
        assert feasible[1] and math.isfinite(total[1])

    def test_a_budget_that_rounds_away_against_w_gets_its_exact_distortion(self):
        # Row 0: gamma/eta + P == gamma/eta, where the kernels reported an outage; sigma^2 (P + w)
        # / (G P + Q) is 1 + 2e30 there.  Row 1 resolves the same budget (gamma/eta = 2e-31).
        gamma, s, p_tot = np.array([[1.0], [1.0]]), np.array([[1.0], [1e31]]), 1e-30
        exact = 1.0 + 1.0 / (p_tot * s[:, 0] / 2.0)
        for mse in (sum_power_mse_batch(gamma, s, 1.0, p_tot)[0],
                    capped_mse_batch(gamma, s, 1.0, p_tot, math.inf)):
            assert mse == pytest.approx(exact, rel=1e-15)

    def test_a_cap_of_at_least_the_budget_never_binds(self):
        # At K=1 a cap of 1.5 P, whose breakpoint u + cap/(gamma u) rounds onto u.  No sensor
        # can spend more than the budget, so the cap never binds.
        gamma, s = np.ones((1, 1)), np.ones((1, 1))
        mse = capped_mse_batch(gamma, s, 1.0, 1e-16, 1.5e-16)
        assert _bits(mse) == _bits(sum_power_mse_batch(gamma, s, 1.0, 1e-16)[0])
        assert mse[0] == pytest.approx(1.0 + 2e16, rel=1e-15)

    def test_one_sensor_gets_the_exact_distortion_over_a_wide_grid(self):
        # At K=1 the optimal distortion is sigma^2 (1/gamma + 1/(P eta)), here in rational
        # arithmetic on the kernels' own eta.
        gamma, s = (x.reshape(-1, 1) for x in np.meshgrid(np.geomspace(1e-2, 1e18, 21),
                                                             np.geomspace(1e-3, 1e8, 12)))
        eta = s / (1.0 + 1.0 / gamma)
        for p_tot in np.geomspace(1e-14, 1e2, 17):
            exact = [float(Fraction(2.5) * (1 / Fraction(g) + 1 / (Fraction(p_tot) * Fraction(e))))
                     for g, e in zip(gamma[:, 0], eta[:, 0])]
            for mse in (sum_power_mse_batch(gamma, s, 2.5, p_tot)[0],
                        capped_mse_batch(gamma, s, 2.5, p_tot, math.inf)):
                np.testing.assert_allclose(mse, exact, rtol=1e-15, atol=0)

    def test_the_batch_kernels_take_one_budget(self):
        gamma, s = np.ones((2, 3)), np.ones((2, 3))
        for kernel in (equal_power_mse_batch, sum_power_mse_batch):
            with pytest.raises(TypeError):
                kernel(gamma, s, 1.0, np.array([0.1, 1.0]))

    def test_equal_budget_is_the_smallest_that_meets_the_target(self):
        rng = np.random.default_rng(37)
        for k in (1, 3, 20):
            gamma = 10 ** rng.uniform(-0.3, 2.3, (50, k))
            s = 10 ** rng.uniform(-1.3, 1.3, (50, k))
            s[:10, 1:] = 0.0  # one live sensor
            floors = 1.0 / np.where(s > 0, gamma, 0.0).sum(axis=1)
            for d0 in float(floors.max()) * np.array([1.01, 3.0, 100.0]):
                budget = _equal_budget_batch(gamma, s, 1.0, d0)
                for i in range(gamma.shape[0]):
                    s1 = ff.Snapshot.from_arrays(1.0, gamma[i], s[i])
                    # The Newton iteration stops on fused-SNR totals against 1/d0,
                    # so the distortion may round a few ulp above d0.
                    assert ff.equal_power_mse(s1, budget[i]) <= d0 * (1.0 + 1e-15)
                    assert ff.equal_power_mse(s1, budget[i] * (1.0 - 1e-9)) > d0
        assert _equal_budget_batch(np.ones((0, 3)), np.ones((0, 3)), 1.0, 0.5).shape == (0,)

    def test_min_power_rows_at_the_floor_get_equal_budgets(self):
        # d0 within one ulp of 1/sum(live gamma), with the kernels called as the min-power sweep
        # calls them.  The two sum the live gammas in different orders, so the min-power kernel
        # must neither raise nor accept a row whose equal-split budget is infinite.
        rng = np.random.default_rng(0)
        gamma = 10 ** rng.uniform(-1.5, 3.75, (1000, 8))
        s = np.where(rng.random((1000, 8)) < 0.5, 0.0, 10 ** rng.uniform(-1.0, 1.0, (1000, 8)))
        s[:, 0] = 1.0
        floors = 1.0 / np.where(s > 0, gamma, 0.0).sum(axis=1)
        accepted = 0
        for i, floor in enumerate(floors):
            for d0 in (np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0)):
                _, _, feasible = min_power_total_batch(gamma[i : i + 1], s[i : i + 1], 1.0, d0)
                rows = np.flatnonzero(feasible) + i
                assert np.isfinite(_equal_budget_batch(gamma[rows], s[rows], 1.0, d0)).all()
                accepted += int(feasible[0])
        assert accepted > 500  # most rows one ulp above their floor are feasible

    def test_every_newton_loop_raises_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(allocation, "_NEWTON_MAX_STEPS", 3)
        with pytest.raises(ff.ConvergenceFailure, match="equal-power budget"):
            _equal_budget_batch(np.array([[100.0, 100.0]]), np.array([[1e3, 1.0]]), 1.0, 0.006)
        with pytest.raises(ff.ConvergenceFailure, match="squared-power stationarity"):
            ff.l2_min_power_allocation(snap([100.0, 100.0], [1e3, 1.0]), 0.006)
        with pytest.raises(ff.ConvergenceFailure, match="squared-power dual"):
            ff.l2_min_power_allocation(snap([100.0], [1.0]), 10.0)


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


class TestColumnMajorChunks:
    @pytest.mark.parametrize("k", [1, 2, 3, 20, 100])
    def test_cumsum_sensors_is_cumsum_bit_for_bit(self, k):
        rng = np.random.default_rng(41)
        x = 10 ** rng.uniform(-8, 8, (300, k)) * rng.choice([-1.0, 1.0], (300, k))
        for chunk in (x, np.asfortranarray(x)):
            for view in (chunk, chunk[:, ::-1], chunk[:1], chunk[:1].copy()):
                assert _bits(_cumsum_sensors(view)) == _bits(np.cumsum(view, axis=1))
            out = np.zeros((300, k + 1), order="F")[:, ::-1]
            _cumsum_sensors(chunk, out=out[:, 1:])
            assert _bits(out[:, 1:]) == _bits(np.cumsum(x, axis=1)) and not out[:, 0].any()

    @pytest.mark.parametrize("k", [3, 20, 100])
    def test_kernels_agree_on_row_and_column_major_chunks(self, k):
        # Below 8 sensors the columns are added in numpy's own row order; from 8 on numpy sums
        # a contiguous row pairwise, so a column-major chunk may differ in the last bits.
        rng = np.random.default_rng(43)
        gamma = 10 ** rng.uniform(-0.3, 2.3, (400, k))
        s = np.where(rng.random((400, k)) < 0.2, 0.0, 10 ** rng.uniform(-1.3, 1.3, (400, k)))
        s[0] = 0.0  # a dead row
        live = np.where(s > 0, gamma, 0.0).sum(axis=1)
        d0 = 2.0 / live[live > 0].min()  # twice the highest floor: every live row is feasible
        budgets = (0.01, 0.3, 3.0)

        def kernels(g, sv):
            return (*[equal_power_mse_batch(g, sv, 1.0, p) for p in budgets],
                    *[x for p in budgets for x in sum_power_mse_batch(g, sv, 1.0, p)],
                    *min_power_total_batch(g, sv, 1.0, d0),
                    _equal_budget_batch(g, sv, 1.0, d0),
                    capped_mse_batch(g, sv, 1.0, 0.3, 1.5 * 0.3 / k))

        by_rows = kernels(gamma, s)
        by_columns = kernels(np.asfortranarray(gamma), np.asfortranarray(s))
        for rows, columns in zip(by_rows, by_columns):
            if k < 8:
                assert _bits(columns) == _bits(rows)
            else:
                np.testing.assert_allclose(columns, rows, rtol=1e-12)


class TestOneRanking:
    @pytest.mark.parametrize("k", [3, 20, 100])
    def test_every_kernel_reads_one_ranking_and_writes_over_none_of_it(self, k):
        # The optimal, capped and min-power kernels read one _rank_scan in turn, twice over:
        # each must give the bits of a fresh build, and the shared arrays must keep theirs.
        rng = np.random.default_rng(k)
        gamma = 10 ** rng.uniform(-0.3, 2.3, (300, k))
        s = np.where(rng.random((300, k)) < 0.2, 0.0, 10 ** rng.uniform(-1.3, 1.3, (300, k)))
        s[0] = 0.0  # a dead row
        if k < 8:  # laid out as sample_batch hands such chunks out
            gamma, s = np.asfortranarray(gamma), np.asfortranarray(s)
        live = _live_total(gamma, s)
        ranked = _rank_scan(gamma, s)
        rows = _waterfill_rows(ranked)
        before = [_bits(x) for x in ranked + rows]
        clipped = 0
        for _ in range(2):
            for p in (0.01, 0.3, 3.0):
                optimal = _waterfill_mse(*rows[4:], p, 1.0)
                for got, fresh in zip(optimal, sum_power_mse_batch(gamma, s, 1.0, p)):
                    assert _bits(got) == _bits(fresh)
                capped = _capped_mse(*rows, p, 1.5 * p / k, 1.0)
                assert _bits(capped) == _bits(capped_mse_batch(gamma, s, 1.0, p, 1.5 * p / k))
                clipped += int((capped > optimal[0]).sum())
            for d0 in (2.0 / live[live > 0].min(), 1.0 / np.median(live)):  # all, half feasible
                shared = _min_power_total(*ranked[2:], live, 1.0 / d0)
                for got, fresh in zip(shared, min_power_total_batch(gamma, s, 1.0, d0)):
                    assert _bits(got) == _bits(fresh)
        assert clipped > 100  # the capped kernel's clipping loop ran
        assert [_bits(x) for x in ranked + rows] == before


class TestPrefixCut:
    @pytest.mark.parametrize("k", [2, 6, 20])
    def test_the_cut_is_a_prefix_with_a_positive_divisor(self, k):
        # Every sensor twice (tied u), gamma over 1e-2..1e18, one channel in ten dead, and
        # requirements up to 1 - 1e-12 of the rank-order total: the running sum f changes sign
        # once, so the sensors on are a prefix, and past the cut d = G_k1 - R is positive.
        rng = np.random.default_rng(k)
        gamma, s = (np.tile(10 ** rng.uniform(lo, hi, (60, k // 2)), 2)
                    for lo, hi in ((-2, 18), (-3, 8)))
        s[rng.random(s.shape) < 0.1] = 0.0
        _, _, u, usable, du, _, _, prefix_gamma = _rank_scan(gamma, s)
        feasible = 0
        for i in range(gamma.shape[0]):
            row = [x[i : i + 1] for x in (u, du, prefix_gamma)]
            for share in 1.0 - np.geomspace(1e-12, 1.0 - 1e-12, 9):
                required = share * prefix_gamma[i, -1]
                k1, f = _min_power_cut(*row, required, usable[i : i + 1])
                on = (f[0] > 0) & usable[i]
                assert not (on[1:] > on[:-1]).any() and k1[0] == on.sum()
                if prefix_gamma[i, -1] > required:
                    feasible += 1
                    assert k1[0] >= 1 and prefix_gamma[i, k1[0] - 1] - required > 0
        assert feasible > 400

    def test_min_power_with_the_threshold_on_a_sensors_turn_on(self):
        # R = L_m/u_m puts sensor m's turn-on on the threshold, where the cut's running sum f
        # and the row solver's excess R u - L, summed in other roundings, can differ in sign.
        rng = np.random.default_rng(7)
        worst, solves = 0.0, 0
        for k in (3, 8, 20):
            for _ in range(40):
                g, sv = 10 ** rng.uniform(-2, 12, k), 10 ** rng.uniform(-3, 6, k)
                g[: k // 2], sv[: k // 2] = g[k - k // 2 :], sv[k - k // 2 :]  # tied merits
                snapshot = snap(g, sv)
                _, gamma_u, u = allocation._rank_row(snapshot)
                for m in range(1, u.size):
                    lead = float(np.sum(gamma_u[:m] * (u[m] - u[:m])))
                    for step in (-1, 0, 1) if lead > 0 else ():
                        required = lead / u[m] * (1.0 + step * 2.2e-16)
                        alpha, _ = ff.min_power_allocation(snapshot, 1.0 / required)
                        worst = max(worst, abs(ff.blue_mse(snapshot, alpha) * required - 1.0))
                        solves += 1
        assert solves > 2000 and worst < 1e-13

    def test_min_power_with_an_underflowing_first_step(self):
        # R u_1 = 1e-310 * 1.4e-100 rounds to 0, so f_1 is 0 and no sensor passes the cut; the
        # first sensor is on all the same, with a budget (about 1e-510 W) that rounds to 0.
        snapshot = snap([1.0, 1.0], [1e200, 1e199], sig=1e-300)
        alpha, diagnostics = ff.min_power_allocation(snapshot, 1e10)
        assert not alpha.alpha_prime.any()
        assert diagnostics.threshold_constant == 1.0 / math.sqrt(snapshot.eta[0])

    def test_min_power_at_the_floor_succeeds_or_is_infeasible(self):
        # d0 within one ulp of 1/sum(live gamma), summed in sensor order, where the rank-order
        # sum can land on the other side of the requirement; that too is an infeasible target.
        rng = np.random.default_rng(0)
        gamma = 10 ** rng.uniform(-1.5, 3.75, (300, 8))
        s = np.where(rng.random((300, 8)) < 0.5, 0.0, 10 ** rng.uniform(-1.0, 1.0, (300, 8)))
        s[:, 0] = 1.0
        solved = 0
        for g, sv in zip(gamma, s):
            snapshot = snap(g, sv)
            floor = ff.distortion_floor(snapshot)
            for d0 in (floor, np.nextafter(floor, 1.0), np.nextafter(floor, 1.0) * (1 + 2e-16)):
                try:
                    alpha, diagnostics = ff.min_power_allocation(snapshot, float(d0))
                except ff.InfeasibleTarget:
                    continue
                assert diagnostics.active_count >= 1 and alpha.alpha_prime.max() > 0
                solved += 1
        assert solved > 300

    def test_min_power_next_to_a_huge_gamma(self):
        # The middle sensor (gamma 1e20) is needed to meet the target: its
        # 1 - d/(sqrt(eta)*c) margin rounds to 0 and rho0*c - w loses every digit.
        gamma, s = np.array([[3.0, 1e20, 5.0]]), np.array([[2.0, 1.0, 0.5]])
        total, k1, feasible = min_power_total_batch(gamma, s, 1.0, 0.1)
        assert feasible[0] and k1[0] == 2
        # Exact rational arithmetic on the same ranked inputs, first two sensors active.
        g = [Fraction(3), Fraction(1e20)]
        u = [1 / Fraction(math.sqrt(eta)) for eta in s[0, :2] / (1 + 1 / gamma[0, :2])]
        rho = (g[0] * u[0] + g[1] * u[1]) / (g[0] + g[1] - 10)
        assert u[1] < rho <= 1 / Fraction(math.sqrt(5 * 0.5 / 6))
        exact = sum(gk * uk * (rho - uk) for gk, uk in zip(g, u))
        assert total[0] == pytest.approx(float(exact), rel=1e-12)
