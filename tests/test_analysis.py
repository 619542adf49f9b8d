import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import fadefusion as ff
from fadefusion.analysis import Curve, _certain_outage
from fadefusion.channel import default_network, mean_merit
from test_channel import unit_gamma_model


def still_model(sigma_k_sq=0.01):
    return default_network(sigma_k_sq=sigma_k_sq, fading_kind="none")


class TestOutageProbability:
    def test_unreachable_threshold_gives_zero(self):
        est = ff.outage_probability(
            default_network(), 3, ff.EqualPolicy(), 1e12, 0.01, 10_000, seed=1
        )
        assert est.probability == 0.0

    def test_threshold_below_floor_is_certain_outage(self):
        with pytest.warns(UserWarning, match="distortion floor") as record:
            est = ff.outage_probability(
                default_network(), 4, ff.EqualPolicy(), 1e-9, 10.0, 5_000, seed=1
            )
        assert est.probability == 1.0
        assert record[0].filename == __file__  # the caller's line, not the library's

    def test_sigma_sq_list_of_the_wrong_length_is_rejected_below_its_floor(self):
        # A 2-entry sigma_sq list at K=3: its 2-sensor floor is 0.005, so d0 = 0.004
        # must not be read as certain outage.
        model = dataclasses.replace(
            default_network(), observation=ff.ObservationModel.fixed((0.01, 0.01))
        )
        for d0 in (0.004, 0.02):
            with pytest.raises(ValueError, match="sigma_sq has 2 entries but K=3"):
                ff.outage_probability(model, 3, ff.EqualPolicy(), d0, 0.01, 1_000, seed=1)

    def test_the_floor_of_gammas_near_the_largest_float_does_not_overflow(self):
        # 52 gammas of 4.6e307 sum past the largest float; under the suite's
        # error::RuntimeWarning filter, an overflowing sum would raise here.
        model = default_network(sigma_theta_sq=2e72, sigma_k_sq=4.38e-236)
        curve = Curve("outage", 52, (0.01,), ff.OptimalPolicy(), 0.01799)
        assert not _certain_outage(model, curve)

    def test_a_floor_blocked_curve_of_huge_gammas_still_warns(self):
        model = default_network(sigma_theta_sq=2e72, sigma_k_sq=4.38e-236)
        curve = Curve("outage", 52, (0.01,), ff.EqualPolicy(), 4e-238)  # floor 4.38e-236/52
        with pytest.warns(UserWarning, match="distortion floor 8.42308e-238"):
            assert _certain_outage(model, curve)

    def test_single_sensor_matches_analytic_form(self):
        model = default_network()
        p_tot, d0, trials = 0.02, 0.02, 100_000
        est = ff.outage_probability(model, 1, ff.EqualPolicy(), d0, p_tot, trials, seed=2)
        s_star = 1.01 / (p_tot * (d0 - 0.01))
        expected = 1.0 - math.exp(-s_star / 1e5)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(est.probability - expected) <= 3 * se

    def test_estimate_is_exactly_count_over_trials(self):
        est = ff.outage_probability(
            default_network(), 2, ff.EqualPolicy(), 0.02, 0.003, 12_345, seed=3
        )
        assert est.probability == est.count / est.trials
        assert 0.0 <= est.probability <= 1.0
        p = est.probability
        assert est.half_width_95 == pytest.approx(1.96 * math.sqrt(p * (1 - p) / est.trials))

    def test_policy_dominance_at_matched_seed(self):
        model = default_network()
        for p_tot in (0.002, 0.01):
            equal = ff.outage_probability(model, 4, ff.EqualPolicy(), 0.02, p_tot, 40_000, seed=4)
            capped = ff.outage_probability(
                model, 4, ff.CappedPolicy(1.5), 0.02, p_tot, 40_000, seed=4
            )
            optimal = ff.outage_probability(
                model, 4, ff.OptimalPolicy(), 0.02, p_tot, 40_000, seed=4
            )
            assert optimal.count <= capped.count <= equal.count

    def test_worker_count_does_not_change_anything(self):
        model = default_network()
        one = ff.outage_probability(model, 3, ff.OptimalPolicy(), 0.02, 0.004, 150_000, seed=5)
        many = ff.outage_probability(
            model, 3, ff.OptimalPolicy(), 0.02, 0.004, 150_000, seed=5, workers=3
        )
        assert one == many


class TestAverageDistortion:
    def test_deterministic_channel_equals_single_snapshot(self):
        model = still_model()
        snap = ff.sample_snapshot(model, 3, ff.RngStream(0, 0))
        expected = ff.equal_power_mse(snap, 0.005)
        avg = ff.average_distortion(model, 3, ff.EqualPolicy(), 0.005, 1_000, seed=0)
        assert avg.mean == pytest.approx(expected, rel=1e-12)
        assert avg.excluded == 0

    def test_mean_decreases_with_budget(self):
        model = default_network()
        means = [
            ff.average_distortion(model, 3, ff.EqualPolicy(), p, 20_000, seed=6).mean
            for p in (1e-4, 1e-3, 1e-2)
        ]
        assert means[0] > means[1] > means[2]

    def test_tripling_sensors_tenfold_barely_moves_the_mean(self):
        # Going from 3 to 30 nodes buys far less than the effect of power:
        # the two means stay within a small constant factor of each other.
        model = default_network()
        mean3 = ff.average_distortion(model, 3, ff.EqualPolicy(), 1e-4, 40_000, seed=7).mean
        mean30 = ff.average_distortion(model, 30, ff.EqualPolicy(), 1e-4, 40_000, seed=7).mean
        assert mean30 <= mean3
        assert mean3 <= 1.6 * mean30

    def test_worker_invariance(self):
        model = default_network()
        a = ff.average_distortion(model, 2, ff.OptimalPolicy(), 0.001, 140_000, seed=8)
        b = ff.average_distortion(model, 2, ff.OptimalPolicy(), 0.001, 140_000, seed=8, workers=4)
        assert a == b


class TestDInfinity:
    def test_unit_merit_example(self):
        model = unit_gamma_model(mean_s=2.0)  # E[merit] = 1
        assert ff.d_infinity(model, 10.0) == pytest.approx(0.1, rel=1e-12)

    def test_inverse_proportional_to_budget(self):
        model = default_network()
        assert ff.d_infinity(model, 0.02) == pytest.approx(
            ff.d_infinity(model, 0.01) / 2.0, rel=1e-12
        )

    def test_large_network_equal_power_approaches_it(self):
        model = default_network()
        p_tot = 1e-4
        avg = ff.average_distortion(model, 10_000, ff.EqualPolicy(), p_tot, 100, seed=9)
        assert avg.mean == pytest.approx(ff.d_infinity(model, p_tot), rel=0.02)

    def test_sigma_sq_list_must_match_k(self):
        model = dataclasses.replace(
            default_network(), observation=ff.ObservationModel.fixed((0.01, 1.0))
        )
        for k in (1, 3):
            with pytest.raises(ValueError, match=f"sigma_sq has 2 entries but K={k}"):
                ff.d_infinity(model, 0.01, k=k)
        mean_merit = 1e5 * (1.0 / 1.01 + 1.0 / 2.0) / 2.0
        assert ff.d_infinity(model, 0.01, k=2) == pytest.approx(1.0 / (0.01 * mean_merit), rel=1e-15)

    def test_budget_times_merit_below_the_float_range(self):
        # P * E[eta] underflows to 0, though the floor, 2.03e211, is a float.
        model = default_network(sigma_theta_sq=1.4573698271490243e-121,
                                nominal_gain=5.5205975777660905e280,
                                channel_noise_variance=2.091927076106252e225)
        p_tot, merit = 1.8666793531907266e-265, mean_merit(model)
        assert p_tot * merit == 0.0
        exact = Fraction(model.prior.variance_theta) / (Fraction(p_tot) * Fraction(merit))
        assert ff.d_infinity(model, p_tot) == pytest.approx(float(exact), rel=1e-15)
        assert ff.d_infinity(default_network(sigma_theta_sq=1e300), 1e-300) == math.inf

    def test_a_merit_that_underflows_to_zero_is_refused(self):
        model = default_network(sigma_theta_sq=4.9100365246842e-176,
                                nominal_gain=13645674.677143756,
                                channel_noise_variance=3.1089624757304626e260)
        assert mean_merit(model) == 0.0
        with pytest.raises(ValueError, match="expected merit underflows to 0"):
            ff.d_infinity(model, 1.2781879842574646e-113)


class TestRateFunctions:
    def test_zero_at_the_mean(self):
        assert ff.rate_function_exponential(2.0, 2.0) == 0.0
        value, theta = ff.rate_function_numeric(
            ff.RateFunctionQuery(a=2.0, mean_b=2.0), full_output=True
        )
        assert value == 0.0 and theta == 0.0

    def test_fixed_points(self):
        assert ff.rate_function_exponential(math.e, 1.0) == pytest.approx(math.e - 2.0, abs=1e-12)
        assert ff.rate_function_exponential(0.1, 1.0) == pytest.approx(
            0.1 + math.log(10.0) - 1.0, abs=1e-12
        )

    def test_numeric_matches_closed_form(self):
        for ratio in np.geomspace(0.05, 5.0, 20):
            closed = ff.rate_function_exponential(ratio * 3.0, 3.0)
            numeric = ff.rate_function_numeric(ff.RateFunctionQuery(a=ratio * 3.0, mean_b=3.0))
            assert numeric == pytest.approx(closed, abs=1e-8)

    def test_strictly_positive_off_the_mean_and_monotone_below(self):
        values = [
            ff.rate_function_numeric(ff.RateFunctionQuery(a=a, mean_b=1.0))
            for a in (0.2, 0.5, 0.9)
        ]
        assert all(v > 0 for v in values)
        assert values[0] > values[1] > values[2]

    def test_empirical_samples_agree_with_closed_form(self):
        rng = np.random.default_rng(10)
        x = rng.exponential(2.0, 300_000)
        got = ff.rate_function_numeric(ff.RateFunctionQuery(a=1.0, samples=x))
        assert got == pytest.approx(ff.rate_function_exponential(1.0, 2.0), rel=0.03)

    @pytest.mark.parametrize("c", [1.0, 2.0**10, 2.0**20])
    def test_two_point_samples_keep_full_precision(self, c):
        # x - a is exact here; theta*a - log M(theta) cancelled and read 0.125 at c = 2^20.
        x = np.array([c, c + 2.0**-26] * 5)
        got = ff.rate_function_numeric(ff.RateFunctionQuery(a=c + 0.75 * 2.0**-26, samples=x))
        exact = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert got == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_the_units_of_x_do_not_change_the_value(self, scale):
        # An absolute theta tolerance of 1e-12 dwarfed a maximizer of ~1e-200, and 400
        # doublings from theta = 1 fell short of one of ~1e200.
        x, a = np.array([1.0, 2.0, 4.0]), 1.5
        query = ff.RateFunctionQuery(a=a * scale, samples=x * scale)
        value, theta = ff.rate_function_numeric(query, full_output=True)
        unit_query = ff.RateFunctionQuery(a=a, samples=x)
        unit, unit_theta = ff.rate_function_numeric(unit_query, full_output=True)
        assert value == pytest.approx(unit, rel=1e-13)
        assert theta * scale == pytest.approx(unit_theta, rel=1e-12)
        closed = ff.rate_function_numeric(ff.RateFunctionQuery(a=3.0 * scale, mean_b=scale))
        assert closed == pytest.approx(ff.rate_function_exponential(3.0, 1.0), rel=1e-13)

    def test_samples_one_subnormal_step_from_a(self):
        # The mean |x - a| of these, 0.5 * 5e-324, rounds to 0; the largest |x - a| does not.
        a = 5.6e-309
        x = np.array([a - 5e-324, a + 5e-324])
        assert ff.rate_function_numeric(ff.RateFunctionQuery(a=a, samples=x)) == 0.0
        x = np.array([a - 5e-324, a + 1e-323])
        exact = 2.0 / 3.0 * math.log(4.0 / 3.0) + 1.0 / 3.0 * math.log(2.0 / 3.0)
        got = ff.rate_function_numeric(ff.RateFunctionQuery(a=a, samples=x))
        assert got == pytest.approx(exact, rel=1e-13)

    def test_samples_whose_distance_to_a_passes_the_float_range(self):
        # x - a overflows at x = -1.7e308; (x - a)/2 does not, and theta stays in units of x.
        x1, x2, a = -1.7e308, 1.7e308, 1e308
        query = ff.RateFunctionQuery(a=a, samples=np.array([x1, x2]))
        value, theta = ff.rate_function_numeric(query, full_output=True)
        p = float((Fraction(a) - Fraction(x1)) / (Fraction(x2) - Fraction(x1)))  # tilted P(x2)
        assert value == pytest.approx(p * math.log(2 * p) + (1 - p) * math.log(2 * (1 - p)),
                                      rel=1e-13)
        assert theta * (x2 / 2 - x1 / 2) * 2 == pytest.approx(math.log(p / (1 - p)), rel=1e-12)

    @pytest.mark.parametrize("a, mean_b", [(1e-200, 1.0), (1e-300, 1e7)])
    def test_lower_tail_past_two_to_the_399(self, a, mean_b):
        # The maximizer t = b theta = 1 - b/a lies past the 400th doubling, 2^399 ~ 1e120.
        query = ff.RateFunctionQuery(a=a, mean_b=mean_b)
        value, theta = ff.rate_function_numeric(query, full_output=True)
        assert value == pytest.approx(ff.rate_function_exponential(a, mean_b), rel=1e-13)
        assert theta == pytest.approx(1.0 / mean_b - 1.0 / a, rel=1e-12)

    def test_divergence_past_the_last_halving_step(self):
        # a/b > 2^53: the maximizer lies within one ulp of the domain edge 1/b.
        for a, mean_b in ((1e20, 1.0), (3.16e117, 6.29e-141)):
            with pytest.raises(ff.DivergentMGF):
                ff.rate_function_numeric(ff.RateFunctionQuery(a=a, mean_b=mean_b))

    def test_empirical_divergence_outside_sample_range(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ff.DivergentMGF):
            ff.rate_function_numeric(ff.RateFunctionQuery(a=0.5, samples=x))
        with pytest.raises(ff.DivergentMGF):
            ff.rate_function_numeric(ff.RateFunctionQuery(a=3.5, samples=x))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            ff.RateFunctionQuery(a=1.0)
        with pytest.raises(ValueError):
            ff.RateFunctionQuery(a=1.0, mean_b=2.0, samples=np.ones(3))
        for bad in ([math.nan, 1.0, 2.0], [math.inf, 1.0], [1.0, -math.inf]):
            with pytest.raises(ValueError, match="all finite"):
                ff.RateFunctionQuery(a=1.0, samples=np.array(bad))
        for a, mean_b in ((-1.0, 2.0), (math.inf, 2.0), (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(ValueError):
                ff.RateFunctionQuery(a=a, mean_b=mean_b)
            with pytest.raises(ValueError):
                ff.rate_function_exponential(a, mean_b)


class TestChernoffBound:
    def test_values(self):
        assert ff.chernoff_bound(5, 0.0) == 1.0
        assert ff.chernoff_bound(10, 0.5) == pytest.approx(math.exp(-5.0), rel=1e-12)
        assert ff.chernoff_bound(np.int64(10), 0.5) == ff.chernoff_bound(10, 0.5)
        for k, message in ((3.0, "k must be an integer"), (0, "k must be >= 1")):
            with pytest.raises(ValueError, match=message):
                ff.chernoff_bound(k, 0.5)

    def test_empirical_tail_never_exceeds_bound(self):
        model = unit_gamma_model(mean_s=2.0)  # merit exponential with mean 1
        k, trials, a = 10, 200_000, 0.5
        s, gamma = ff.sample_batch(model, k, seed=11, start_trial=0, n_trials=trials)
        eta = s / (1.0 + 1.0 / gamma)
        empirical = float(np.mean(eta.mean(axis=1) < a))
        bound = ff.chernoff_bound(k, ff.rate_function_exponential(a, 1.0))
        se = math.sqrt(max(empirical, 1.0 / trials) * (1 - min(empirical, 1.0)) / trials)
        assert empirical <= bound + 3 * se


class TestSandwich:
    def test_noiseless_sensors_collapse_the_bounds(self):
        snap = ff.Snapshot(ff.SignalPrior(1.0), [ff.NOISELESS] * 2, [3.0, 5.0])
        chk = ff.sandwich_check(snap, 2.0)
        assert chk.ok
        assert chk.lower == chk.fused_snr == chk.upper

    def test_holds_on_random_snapshots(self):
        from helpers import random_snapshot

        rng = np.random.default_rng(12)
        for _ in range(1000):
            snap = random_snapshot(rng)
            chk = ff.sandwich_check(snap, float(10 ** rng.uniform(-2, 2)))
            assert chk.ok
            assert chk.lower_margin >= -1e-12 * max(1.0, chk.upper)
            assert chk.upper_margin >= -1e-12 * max(1.0, chk.upper)

    def test_upper_bound_tightens_with_network_size(self):
        model = default_network()
        ratios = []
        for k in (10, 100, 1000):
            snap = ff.sample_snapshot(model, k, ff.RngStream(13, 0))
            chk = ff.sandwich_check(snap, 1e-4)
            ratios.append(chk.upper / chk.fused_snr)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] == pytest.approx(1.0, rel=1e-3)

    def test_correction_term_does_not_move_the_exponent(self):
        # The fused-SNR lower bound subtracts a 1/K^2 correction; at K = 50
        # the tail exponents measured with and without it agree to within 5%.
        model = unit_gamma_model(mean_s=2.0)
        k, trials, p_tot = 50, 1_000_000, 0.1
        s, gamma = ff.sample_batch(model, k, seed=14, start_trial=0, n_trials=trials)
        eta = s / (1.0 + 1.0 / gamma)
        threshold = 0.7 * p_tot * float(np.mean(eta))  # stays below the mean
        plain = p_tot * eta.mean(axis=1)
        corrected = plain - (p_tot**2 / k**2) * (s**2 / gamma).sum(axis=1)
        p1 = float(np.mean(plain < threshold))
        p2 = float(np.mean(corrected < threshold))
        e1 = -math.log(p1) / k
        e2 = -math.log(p2) / k
        assert abs(e1 - e2) <= 0.05 * e1


class TestDiversitySlope:
    def test_exact_power_law(self):
        p = np.geomspace(1.0, 100.0, 6)
        fit = ff.diversity_slope(p, 0.25 * p**-3.0)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert len(fit.points) == 6

    def test_window_filters_points(self):
        p = np.array([0.1, 1.0, 10.0, 100.0, 1000.0])
        outage = np.array([0.9, 0.2, 0.02, 0.002, 1e-5])
        fit = ff.diversity_slope(p, outage, trials=100_000)
        # 0.9 exceeds the 0.3 ceiling; 1e-5 is under 30/trials
        assert len(fit.points) == 3

    def test_insufficient_data(self):
        with pytest.raises(ff.InsufficientData):
            ff.diversity_slope([1.0, 2.0], [0.9, 0.8])

    def test_single_sensor_analytic_curve_has_unit_slope(self):
        p = np.geomspace(0.05, 5.0, 8)
        outage = 1.0 - np.exp(-1.01e-3 / p)
        fit = ff.diversity_slope(p, outage)
        assert fit.slope == pytest.approx(1.0, abs=0.05)


class TestActiveFraction:
    def test_homogeneous_channels_keep_everything_on(self):
        assert ff.active_fraction(still_model(), 8, 0.01, 200, seed=15) == 1.0

    def test_nondecreasing_in_budget(self):
        model = default_network()
        values = [
            ff.active_fraction(model, 50, p, 5_000, seed=16) for p in (1e-5, 1e-4, 1e-3)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_small_budgets_turn_sensors_off(self):
        assert ff.active_fraction(default_network(), 100, 1e-5, 2_000, seed=17) < 1.0

    def test_worker_invariance(self):
        model = default_network()
        a = ff.active_fraction(model, 10, 1e-4, 140_000, seed=18)
        b = ff.active_fraction(model, 10, 1e-4, 140_000, seed=18, workers=4)
        assert a == b


class TestAverageMinPower:
    def test_homogeneous_deterministic_channels_have_no_gap(self):
        summary = ff.average_min_power(still_model(), 5, 0.01, 100, seed=19)
        assert summary.infeasible == 0
        assert summary.mean_optimal_w == pytest.approx(summary.mean_equal_w, rel=1e-9)

    def test_optimal_never_costs_more(self):
        model = default_network()
        for d0 in (5e-4, 1e-3, 1e-2):  # floor at K=30 is 1/3000
            summary = ff.average_min_power(model, 30, d0, 3_000, seed=20)
            assert summary.infeasible == 0
            assert summary.mean_optimal_w <= summary.mean_equal_w

    def test_absolute_savings_grow_as_target_tightens(self):
        model = default_network()
        gaps = []
        for d0 in (2e-4, 1e-3, 1e-2):
            summary = ff.average_min_power(model, 100, d0, 2_000, seed=21)
            gaps.append(summary.mean_equal_w - summary.mean_optimal_w)
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_infeasible_trials_are_counted(self):
        # fixed gammas: floor is exactly 1/(K * 100); target below it
        summary = ff.average_min_power(default_network(), 2, 0.004, 500, seed=22)
        assert summary.infeasible == 500
        assert math.isnan(summary.mean_optimal_w)

    def test_worker_invariance(self):
        model = default_network()
        a = ff.average_min_power(model, 20, 0.001, 140_000, seed=23)
        b = ff.average_min_power(model, 20, 0.001, 140_000, seed=23, workers=4)
        assert a == b


class TestNearTies:
    """A one-ulp near-tie in one row's threshold scan must not abort the whole run."""

    def test_capped_outage_at_a_negligible_budget(self):
        est = ff.outage_probability(default_network(), 5, ff.CappedPolicy(), 0.02, 1e-30, 2000, seed=1)
        assert est.count == est.trials == 2000

    def test_min_power_with_extreme_observation_snrs(self):
        model = dataclasses.replace(
            default_network(), observation=ff.ObservationModel.lognormal(0.01, 30.0)
        )
        summary = ff.average_min_power(model, 20, 1e-3, 2000, seed=3)
        assert summary.trials == 2000 and summary.infeasible == 0
        assert 0 < summary.mean_optimal_w <= summary.mean_equal_w
