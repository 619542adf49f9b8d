import math
from fractions import Fraction

import numpy as np
import pytest

import fadefusion as ff
from helpers import matrix_mse_inline, random_snapshot


def snap(gamma, s, sig=1.0):
    return ff.Snapshot.from_arrays(sig, gamma, s)


class TestTypes:
    def test_prior_requires_positive_variance(self):
        with pytest.raises(ValueError):
            ff.SignalPrior(0.0)
        with pytest.raises(ValueError):
            ff.SignalPrior(-1.0)
        for tiny in (1e-320, 1.0 / np.finfo(float).max):  # the solvers divide by it
            with pytest.raises(ValueError, match="variance_theta must be above"):
                ff.SignalPrior(tiny)

    def test_sensor_site_validation(self):
        bad = [
            ([0.0], [1.0]),
            ([1.0], [-0.5]),
            ([math.nan], [1.0]),
            ([1.0], [math.nan]),
            ([1.0], [math.inf]),
            ([1.0], [1e-320]),  # a nonzero s needs a finite 1/s
            ([1.0, 2.0], [1.0]),
            ([[1.0]], [[1.0]]),
        ]
        for gamma, s in bad:
            with pytest.raises(ValueError):
                ff.Snapshot(ff.SignalPrior(1.0), gamma, s)
        with pytest.raises(ValueError, match="gamma must be strictly positive, not NaN"):
            ff.Snapshot(ff.SignalPrior(1.0), [math.nan], [1.0])
        assert snap([ff.NOISELESS], [2.0]).inv_gamma[0] == 0.0

    def test_gamma_needs_a_finite_reciprocal(self):
        # 1/gamma overflows at and below 1/max float, which made the optimal allocation's
        # distortion and total power NaN; the smallest gamma above it still solves.
        smallest = np.nextafter(1.0 / np.finfo(float).max, 1.0)
        for tiny in (1e-320, 5e-324, 1.0 / np.finfo(float).max):
            with pytest.raises(ValueError, match="finite 1/gamma"):
                snap([tiny, 1.0], [1.0, 1.0])
        snapshot = snap([smallest, 1.0], [1.0, 1.0])
        assert np.isfinite(snapshot.inv_gamma).all()
        allocation, _ = ff.max_performance_allocation(snapshot, 1.0)
        assert math.isfinite(ff.blue_mse(snapshot, allocation))
        assert math.isclose(allocation.total_power(snapshot), 1.0, rel_tol=1e-12)

    def test_arrays_are_read_only_copies(self):
        gamma, s, alpha, caps = (np.array([1.0, 2.0]) for _ in range(4))
        snapshot = ff.Snapshot(ff.SignalPrior(1.0), gamma, s)
        allocation = ff.Allocation(alpha)
        cap_vector = ff.CapVector(caps)
        for array in (gamma, s, alpha, caps):
            array[0] = 9.0
        for held in (snapshot.gamma, snapshot.s, allocation.alpha_prime, cap_vector.caps):
            np.testing.assert_array_equal(held, [1.0, 2.0])
            with pytest.raises(ValueError):
                held[0] = 3.0
        for cached in (snapshot.eta, snapshot.inv_gamma):  # every later solve reads these
            with pytest.raises(ValueError):
                cached[0] = 0.0
        np.testing.assert_array_equal(snapshot.eta, [0.5, 4.0 / 3.0])
        np.testing.assert_array_equal(snapshot.inv_gamma, [1.0, 0.5])

    def test_snapshot_needs_a_sensor(self):
        with pytest.raises(ValueError):
            ff.Snapshot(ff.SignalPrior(1.0), (), ())

    def test_allocation_rejects_negative(self):
        for bad in ((1.0, -0.1), (1.0, math.nan), ((1.0,),)):
            with pytest.raises(ValueError):
                ff.Allocation(bad)
        for bad in ((1.0, math.nan), (1.0, 0.0), ((1.0,),)):
            with pytest.raises(ValueError):
                ff.CapVector(bad)


class TestMerit:
    def test_unit_gamma(self):
        assert snap([1.0], [4.0]).eta[0] == 2.0

    def test_noiseless_passes_s_through(self):
        assert snap([ff.NOISELESS], [7.0]).eta[0] == 7.0

    def test_field_scale_magnitudes_match_rational_arithmetic(self):
        expected = Fraction(10**5) * Fraction(100, 101)
        got = snap([100.0], [1e5]).eta[0]
        assert got == pytest.approx(float(expected), rel=1e-15)


class TestTransmitPower:
    def test_examples(self):
        assert ff.transmit_power(100.0, 100.0) == pytest.approx(101.0, rel=1e-15)
        assert ff.transmit_power(0.0, 5.0) == 0.0
        assert ff.transmit_power(3.0, ff.NOISELESS) == 3.0
        for bad in (0.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="gamma must be strictly positive, got"):
                ff.transmit_power(1.0, bad)


class TestBlueMse:
    def test_single_noiseless_sensor(self):
        s1 = snap([ff.NOISELESS], [3.0])
        assert ff.blue_mse(s1, ff.Allocation((2.0,))) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_all_power_zero_raises(self):
        s1 = snap([2.0, 3.0], [1.0, 1.0])
        with pytest.raises(ff.AllPowerZero):
            ff.blue_mse(s1, ff.Allocation((0.0, 0.0)))

    def test_two_sensor_value_matches_explicit_matrix_form(self):
        s1 = snap([2.0, 4.0], [1.0, 2.0])
        alloc = ff.Allocation((1.0, 1.0))
        # r1 = 1/(0.5 + 1) = 2/3, r2 = 2/(0.5 + 1) = 4/3, total 2
        assert ff.blue_mse(s1, alloc) == pytest.approx(0.5, rel=1e-15)
        assert matrix_mse_inline(s1, alloc) == pytest.approx(0.5, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ff.blue_mse(snap([1.0], [1.0]), ff.Allocation((1.0, 2.0)))

    def test_monotone_nonincreasing_in_each_budget(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s1 = random_snapshot(rng)
            base = rng.uniform(0.0, 2.0, s1.k)
            mse0 = ff.blue_mse(s1, ff.Allocation(tuple(base))) if base.sum() else math.inf
            i = int(rng.integers(s1.k))
            bumped = base.copy()
            bumped[i] += rng.uniform(0.1, 2.0)
            mse1 = ff.blue_mse(s1, ff.Allocation(tuple(bumped)))
            assert mse1 <= mse0 * (1 + 1e-12)

    def test_lower_bound_from_observation_snrs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s1 = random_snapshot(rng)
            alloc = ff.Allocation(tuple(rng.uniform(0.01, 100.0, s1.k)))
            assert ff.blue_mse(s1, alloc) >= 1.0 / s1.gamma.sum() * (1 - 1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        s1 = random_snapshot(rng, k=6)
        alpha = rng.uniform(0.0, 5.0, 6)
        perm = rng.permutation(6)
        s2 = ff.Snapshot(s1.prior, s1.gamma[perm], s1.s[perm])
        m1 = ff.blue_mse(s1, ff.Allocation(tuple(alpha)))
        m2 = ff.blue_mse(s2, ff.Allocation(tuple(alpha[perm])))
        assert m1 == pytest.approx(m2, rel=1e-13)


class TestMatrixOracle:
    def test_matches_closed_form_on_named_examples(self):
        cases = [
            (snap([ff.NOISELESS], [3.0]), ff.Allocation((2.0,))),
            (snap([2.0, 4.0], [1.0, 2.0]), ff.Allocation((1.0, 1.0))),
        ]
        for s1, alloc in cases:
            assert ff.blue_mse_matrix_oracle(s1, alloc) == pytest.approx(
                ff.blue_mse(s1, alloc), rel=1e-12
            )

    def test_zero_gain_channels_drop_out(self):
        s1 = snap([2.0, 2.0, 2.0], [0.0, 0.0, 1.0])
        alloc = ff.Allocation((1.0, 1.0, 1.0))
        assert ff.blue_mse(s1, alloc) == pytest.approx(1.5, rel=1e-15)
        assert ff.blue_mse_matrix_oracle(s1, alloc) == pytest.approx(1.5, rel=1e-12)

    def test_random_equivalence(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            s1 = random_snapshot(rng, kmax=10)
            alloc = ff.Allocation(tuple(rng.uniform(0.0, 10.0, s1.k)))
            if not np.any(alloc.alpha_prime * s1.s):
                continue
            closed = ff.blue_mse(s1, alloc)
            oracle = ff.blue_mse_matrix_oracle(s1, alloc)
            assert abs(closed - oracle) <= 1e-12 * closed

    def test_raises_all_power_zero(self):
        with pytest.raises(ff.AllPowerZero):
            ff.blue_mse_matrix_oracle(snap([1.0], [1.0]), ff.Allocation((0.0,)))


class TestEqualAllocation:
    def test_single_sensor_inverts_transmit_power(self):
        alloc = ff.equal_allocation(snap([100.0], [1.0]), 101.0)
        assert alloc.alpha_prime[0] == pytest.approx(100.0, rel=1e-14)

    def test_homogeneous_split(self):
        s1 = snap([1.0] * 4, [2.0] * 4)
        alloc = ff.equal_allocation(s1, 8.0)
        assert alloc.alpha_prime == pytest.approx((1.0,) * 4, rel=1e-14)
        assert alloc.transmit_powers(s1) == pytest.approx([2.0] * 4, rel=1e-14)

    def test_heterogeneous_gammas(self):
        s1 = snap([1.0, 3.0], [1.0, 1.0])
        alloc = ff.equal_allocation(s1, 2.0)
        assert alloc.alpha_prime == pytest.approx((0.5, 0.75), rel=1e-14)
        assert alloc.transmit_powers(s1) == pytest.approx([1.0, 1.0], rel=1e-14)

    def test_powers_equal_and_sum_to_budget(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s1 = random_snapshot(rng)
            p_tot = float(rng.uniform(0.1, 50))
            powers = ff.equal_allocation(s1, p_tot).transmit_powers(s1)
            assert np.allclose(powers, p_tot / s1.k, rtol=1e-12)
            assert powers.sum() == pytest.approx(p_tot, rel=1e-12)


class TestEqualPowerMse:
    def test_single_sensor_reduces_to_simple_form(self):
        for gamma, s, p in [(2.0, 3.0, 1.5), (100.0, 1e5, 0.01), (0.7, 0.2, 9.0)]:
            s1 = snap([gamma], [s])
            direct = 1.0 * (1.0 / gamma + (1.0 + 1.0 / gamma) / (p * s))
            assert ff.equal_power_mse(s1, p) == pytest.approx(direct, rel=1e-13)

    def test_dead_channels_raise(self):
        with pytest.raises(ff.AllPowerZero):
            ff.equal_power_mse(snap([1.0, 1.0], [0.0, 0.0]), 2.0)

    def test_matches_blue_mse_of_equal_allocation(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s1 = random_snapshot(rng)
            p_tot = float(rng.uniform(0.1, 50))
            via_alloc = ff.blue_mse(s1, ff.equal_allocation(s1, p_tot))
            assert ff.equal_power_mse(s1, p_tot) == pytest.approx(via_alloc, rel=1e-12)

    def test_reference_constants_match_matrix_oracle(self):
        s1 = snap([100.0] * 3, [1e5] * 3)  # unit signal variance, noise var 0.01
        p_tot = 0.01
        alloc = ff.equal_allocation(s1, p_tot)
        assert ff.equal_power_mse(s1, p_tot) == pytest.approx(
            ff.blue_mse_matrix_oracle(s1, alloc), rel=1e-12
        )

    def test_distortion_floor(self):
        s1 = snap([2.0, 3.0], [1.0, 0.0])
        assert ff.distortion_floor(s1) == pytest.approx(0.5, rel=1e-15)
        assert ff.distortion_floor(snap([2.0], [0.0])) == math.inf

    def test_distortion_floor_where_the_sum_of_gammas_overflows(self):
        # Two gammas at 1e308 sum past the float range: the floor is (1/1e308)/2, not 0, and no
        # overflow warning is raised.  A noiseless sensor still puts it at 0.
        assert ff.distortion_floor(snap([1e308, 1e308], [1.0, 1.0])) == 1e-308 / 2.0
        assert ff.distortion_floor(snap([1e308, 1e308, 1e308], [1.0, 0.0, 1.0])) == 1e-308 / 2.0
        assert ff.distortion_floor(snap([1e308, 1e308, math.inf], [1.0, 1.0, 1.0])) == 0.0
        rng = np.random.default_rng(3)
        gamma = 10 ** rng.uniform(306.0, 308.0, 100)
        exact = Fraction(1e300) / sum(map(Fraction, gamma.tolist()))
        assert ff.distortion_floor(snap(gamma, np.ones(100), sig=1e300)) == pytest.approx(
            float(exact), rel=1e-14)

    def test_distortion_floor_keeps_the_plain_sums_bits_where_it_is_finite(self):
        rng = np.random.default_rng(4)
        for k in (1, 3, 20, 100):
            gamma = 10 ** rng.uniform(-2.0, 306.0, k)
            gamma[0] = 1.7e308 / k  # near the largest float, still a finite sum
            s = np.where(rng.random(k) < 0.2, 0.0, 1.0)
            live = gamma[s > 0]
            expected = 2.0 / float(np.add.reduce(live)) if live.size else math.inf
            assert ff.distortion_floor(snap(gamma, s, sig=2.0)) == expected
