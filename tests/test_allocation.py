import math
from fractions import Fraction

import numpy as np
import pytest

import fadefusion as ff
from fadefusion import allocation
from fadefusion.allocation import (
    _equal_budget_batch,
    _prefix_cut,
    capped_mse_batch,
    equal_power_mse_batch,
    min_power_total_batch,
    sum_power_mse_batch,
)
from helpers import l2_grid_oracle, min_power_dual_oracle, random_snapshot


def snap(gamma, s, sig=1.0):
    return ff.Snapshot.from_arrays(sig, gamma, s)


class TestRanking:
    def test_descending_merit(self):
        s1 = snap([1.0] * 3, [6.0, 2.0, 4.0])  # eta = (3, 1, 2)
        assert ff.rank_sensors(s1).order == (0, 2, 1)

    def test_ties_keep_original_order(self):
        s1 = snap([1.0] * 3, [4.0, 4.0, 4.0])
        assert ff.rank_sensors(s1).order == (0, 1, 2)

    def test_random_orders_are_sorted_bijections(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            s1 = random_snapshot(rng)
            view = ff.rank_sensors(s1)
            merits = np.array(view.merits)
            assert np.all(np.diff(merits) <= 0)
            assert sorted(view.order) == list(range(s1.k))
            assert merits == pytest.approx(sorted(s1.eta, reverse=True))
            assert view.usable == int(np.count_nonzero(s1.eta > 0))


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
        reference = ff.numeric_reference_allocation(s1, 10.0)
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
            stationarity, complementarity = ff.optimality_certificate(s1, alloc, diag)
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
        noiseless = ff.Snapshot(ff.SignalPrior(1.0), (ff.SensorSite.noiseless(1.0),))
        with pytest.raises(ValueError):
            ff.max_performance_allocation(noiseless, 1.0)

    def test_a_budget_below_resolution_raises_instead_of_returning_zeros(self):
        # P*eta/gamma ~ 1e-21: c*sqrt(eta) - 1 rounds to 0 for every sensor
        with pytest.raises(ff.InternalConsistencyError, match="resolution"):
            ff.max_performance_allocation(snap([10.0, 5.0], [1.0, 0.5]), 1e-20)


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
            reference = ff.numeric_reference_allocation(s1, p_tot, caps)
            assert capped_mse == pytest.approx(ff.blue_mse(s1, reference), rel=1e-6)

    def test_insufficient_caps_leave_budget_slack(self):
        s1 = snap([10.0, 20.0], [1.0, 2.0])
        caps = ff.CapVector.uniform(2, 0.5)
        alloc, _ = ff.max_performance_with_caps(s1, 10.0, caps)
        assert alloc.total_power(s1) == pytest.approx(1.0, rel=1e-12)
        assert alloc.transmit_powers(s1) == pytest.approx([0.5, 0.5], rel=1e-12)

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
            scaled = ff.Snapshot(
                ff.SignalPrior(factor * s1.prior.variance_theta), s1.sensors
            )
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


class TestNumericReference:
    def test_single_sensor(self):
        s1 = snap([100.0], [1.0])
        alloc = ff.numeric_reference_allocation(s1, 101.0)
        assert alloc.alpha_prime[0] == pytest.approx(100.0, rel=1e-8)

    def test_homogeneous_equal_split(self):
        s1 = snap([5.0] * 4, [2.0] * 4)
        alloc = ff.numeric_reference_allocation(s1, 6.0)
        assert alloc.alpha_prime == pytest.approx(
            ff.equal_allocation(s1, 6.0).alpha_prime, rel=1e-8, abs=1e-10
        )

    def test_tracks_closed_form_distortion(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            s1 = random_snapshot(rng)
            p_tot = float(10 ** rng.uniform(-1, 1.5))
            closed, _ = ff.max_performance_allocation(s1, p_tot)
            reference = ff.numeric_reference_allocation(s1, p_tot)
            assert ff.blue_mse(s1, reference) == pytest.approx(
                ff.blue_mse(s1, closed), rel=1e-6
            )

    def test_no_usable_sensor(self):
        with pytest.raises(ff.NoUsableSensor):
            ff.numeric_reference_allocation(snap([1.0], [0.0]), 1.0)


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

    def test_batch_handles_dead_rows(self):
        gamma = np.array([[2.0, 3.0], [2.0, 3.0]])
        s = np.array([[0.0, 0.0], [1.0, 1.0]])
        mse, k1 = sum_power_mse_batch(gamma, s, 1.0, 1.0)
        assert math.isinf(mse[0]) and k1[0] == 0
        assert math.isfinite(mse[1])
        total, k1m, feasible = min_power_total_batch(gamma, s, 1.0, 0.6)
        assert not feasible[0] and math.isinf(total[0])
        assert feasible[1] and math.isfinite(total[1])

    def test_budget_array_equals_one_call_per_budget(self):
        rng = np.random.default_rng(31)
        gamma = 10 ** rng.uniform(-0.3, 2.3, (200, 5))
        s = 10 ** rng.uniform(-1.3, 1.3, (200, 5))
        s[7] = 0.0  # a dead row
        budgets = np.array([0.01, 0.3, 3.0, 100.0])
        mse_opt, k1 = sum_power_mse_batch(gamma, s, 1.0, budgets)
        mse_eq = equal_power_mse_batch(gamma, s, 1.0, budgets)
        assert mse_opt.shape == k1.shape == mse_eq.shape == (4, 200)
        for j, p_tot in enumerate(budgets):
            one_mse, one_k1 = sum_power_mse_batch(gamma, s, 1.0, p_tot)
            np.testing.assert_array_equal(mse_opt[j], one_mse)
            np.testing.assert_array_equal(k1[j], one_k1)
            np.testing.assert_array_equal(mse_eq[j], equal_power_mse_batch(gamma, s, 1.0, p_tot))

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

    def test_every_newton_loop_raises_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(allocation, "_NEWTON_MAX_STEPS", 3)
        with pytest.raises(ff.ConvergenceFailure, match="equal-power budget"):
            _equal_budget_batch(np.array([[100.0, 100.0]]), np.array([[1e3, 1.0]]), 1.0, 0.006)
        with pytest.raises(ff.ConvergenceFailure, match="squared-power stationarity"):
            ff.l2_min_power_allocation(snap([100.0, 100.0], [1e3, 1.0]), 0.006)
        with pytest.raises(ff.ConvergenceFailure, match="squared-power dual"):
            ff.l2_min_power_allocation(snap([100.0], [1.0]), 10.0)


class TestPrefixCut:
    def test_rounding_stray_is_accepted_and_a_real_one_raises(self):
        margin = np.array([[0.3, 0.1, -0.2, 2.2e-16, -0.5], [0.4, -0.1, -0.2, -0.3, -0.5]])
        np.testing.assert_array_equal(_prefix_cut(margin, "test"), [2, 1])
        margin[0, 3] = 1e-3
        with pytest.raises(ff.InternalConsistencyError, match="test threshold scan"):
            _prefix_cut(margin, "test")

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
