import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import kstest

import fadefusion as ff
from fadefusion import units
from fadefusion.channel import _COLUMN_MAJOR_BELOW_K, _uniform_block, default_network


def unit_gamma_model(mean_s=2.0):
    """gamma = 1 everywhere, so the merit is s/2; mean channel SNR = mean_s."""
    return ff.NetworkModel(
        prior=ff.SignalPrior(1.0),
        propagation=ff.PropagationModel(
            nominal_gain=mean_s, distance_m=1.0, channel_noise_variance=1.0
        ),
        fading=ff.FadingModel(kind="rayleigh"),
        observation=ff.ObservationModel.fixed(1.0),
    )


def still_network(propagation):
    """A network without fading, so every channel SNR is its mean."""
    return ff.NetworkModel(
        prior=ff.SignalPrior(1.0),
        propagation=propagation,
        fading=ff.FadingModel(kind="none"),
        observation=ff.ObservationModel.fixed(0.01),
    )


class TestUnits:
    def test_gain_parsing(self):
        assert units.parse_gain("-30 dB") == pytest.approx(1e-3, rel=1e-12)
        assert units.parse_gain("3dB") == pytest.approx(10 ** 0.3, rel=1e-12)
        assert units.parse_gain("0.5") == 0.5
        assert units.parse_gain(2) == 2.0
        with pytest.raises(ValueError):
            units.parse_gain("-90 dBm")

    def test_power_parsing(self):
        assert units.parse_power("-90 dBm") == pytest.approx(1e-12, rel=1e-12)
        assert units.parse_power("0 dBm") == pytest.approx(1e-3, rel=1e-12)
        assert units.parse_power("3 mW") == pytest.approx(3e-3, rel=1e-12)
        assert units.parse_power("2 W") == 2.0
        assert units.parse_power(0.25) == 0.25
        with pytest.raises(ValueError):
            units.parse_power("ten watts")

    def test_round_trips(self):
        assert units.watts_to_dbm(units.dbm_to_watts(-17.0)) == pytest.approx(-17.0)
        assert units.linear_to_db(units.db_to_linear(-31.0)) == pytest.approx(-31.0)


class TestChannelSnr:
    def test_reference_constants_give_1e5_per_watt(self):
        prop = ff.PropagationModel(
            nominal_gain=units.parse_gain("-30 dB"),
            distance_m=100.0,
            channel_noise_variance=units.parse_power("-90 dBm"),
        )
        snapshot = ff.sample_snapshot(still_network(prop), 1, ff.RngStream(0, 0))
        assert snapshot.s[0] == pytest.approx(1e5, rel=1e-12)

    def test_deep_fade_maps_to_zero(self):
        fading = ff.FadingModel(kind="rayleigh")
        assert fading.power_from_uniform(np.array(0.0)) == 0.0

    def test_sample_mean_over_a_million_draws(self):
        model = default_network()
        s, _ = ff.sample_batch(model, 1, seed=99, start_trial=0, n_trials=1_000_000)
        # exponential with mean 1e5: standard error of the mean is 1e5/1e3
        assert abs(s.mean() - 1e5) <= 3 * 1e5 / math.sqrt(1_000_000)

    def test_sensor_indices_see_distinct_fades(self):
        snapshot = ff.sample_snapshot(unit_gamma_model(), 6, ff.RngStream(5, 3))
        assert len(set(snapshot.s)) == 6


class TestSnapshotSampling:
    def test_fixed_observation_gives_constant_gamma(self):
        snap = ff.sample_snapshot(default_network(), 4, ff.RngStream(1, 0))
        assert snap.gamma == pytest.approx([100.0] * 4)

    def test_single_sensor(self):
        snap = ff.sample_snapshot(default_network(), 1, ff.RngStream(1, 0))
        assert snap.k == 1

    def test_same_seed_and_trial_reproduce_bit_identically(self):
        model = default_network()
        a = ff.sample_snapshot(model, 3, ff.RngStream(42, 7))
        b = ff.sample_snapshot(model, 3, ff.RngStream(42, 7))
        np.testing.assert_array_equal(a.gamma, b.gamma)
        np.testing.assert_array_equal(a.s, b.s)

    def test_trials_and_seeds_differ(self):
        model = default_network()
        base = ff.sample_snapshot(model, 3, ff.RngStream(42, 7))
        assert not np.array_equal(ff.sample_snapshot(model, 3, ff.RngStream(42, 8)).s, base.s)
        assert not np.array_equal(ff.sample_snapshot(model, 3, ff.RngStream(43, 7)).s, base.s)

    def test_batch_equals_stacked_single_trials(self):
        for model in (default_network(), _random_obs_model()):
            s_all, g_all = ff.sample_batch(model, 3, seed=7, start_trial=0, n_trials=40)
            for t in (0, 1, 17, 39):
                s_t, g_t = ff.sample_batch(model, 3, seed=7, start_trial=t, n_trials=1)
                assert np.array_equal(s_all[t], s_t[0])
                assert np.array_equal(g_all[t], g_t[0])

    def test_small_chunks_are_column_major_with_unchanged_values(self):
        # The row-major reference is how the draws were laid out before chunks went column-major.
        for model in (default_network(), _random_obs_model()):
            for k in (1, 3, _COLUMN_MAJOR_BELOW_K - 1, _COLUMN_MAJOR_BELOW_K, 20):
                s, gamma = ff.sample_batch(model, k, seed=7, start_trial=5, n_trials=40)
                u = _uniform_block(7, 5, 40, model.draws_per_trial(k))
                fade = model.fading.power_from_uniform(u[:, :k])
                np.testing.assert_array_equal(s, model.propagation.mean_channel_snr(k) * fade)
                sigma_sq = model.observation.variances(k, u[:, k:])
                np.testing.assert_array_equal(gamma, model.prior.variance_theta / sigma_sq)
                column_major = k < _COLUMN_MAJOR_BELOW_K
                assert s.flags.f_contiguous == gamma.flags.f_contiguous == column_major
                row_major = k == 1 or not column_major  # an (n, 1) array is both
                assert s.flags.c_contiguous == gamma.flags.c_contiguous == row_major

    def test_chunked_equals_whole(self):
        model = default_network()
        whole, _ = ff.sample_batch(model, 2, seed=3, start_trial=0, n_trials=100)
        parts = np.vstack(
            [
                ff.sample_batch(model, 2, seed=3, start_trial=a, n_trials=n)[0]
                for a, n in ((0, 17), (17, 33), (50, 50))
            ]
        )
        assert np.array_equal(whole, parts)

    def test_rng_stream_validation(self):
        with pytest.raises(ValueError):
            ff.RngStream(-1, 0)
        with pytest.raises(ValueError):
            ff.RngStream(2**64, 0)
        with pytest.raises(ValueError):
            ff.RngStream(0, -2)


def _random_obs_model():
    return ff.NetworkModel(
        prior=ff.SignalPrior(1.0),
        propagation=ff.PropagationModel(
            nominal_gain=1e-3, distance_m=100.0, channel_noise_variance=1e-12
        ),
        fading=ff.FadingModel(kind="rayleigh"),
        observation=ff.ObservationModel.uniform(0.005, 0.02),
    )


class TestDistributions:
    def test_unit_gamma_merit_is_exponential(self):
        model = unit_gamma_model(mean_s=2.0)
        s, gamma = ff.sample_batch(model, 1, seed=12, start_trial=0, n_trials=100_000)
        assert np.all(gamma == 1.0)
        eta = (s / 2.0).ravel()
        result = kstest(eta, "expon", args=(0.0, 1.0))
        assert result.pvalue >= 0.01

    def test_sampled_merit_mean_matches_analytics(self):
        model = default_network()
        s, gamma = ff.sample_batch(model, 1, seed=21, start_trial=0, n_trials=1_000_000)
        eta = (s / (1.0 + 1.0 / gamma)).mean()
        assert eta == pytest.approx(ff.mean_merit(model), rel=0.01)

    def test_mean_merit_closed_form_fixed_obs(self):
        model = default_network()
        assert ff.mean_merit(model) == pytest.approx(1e5 / 1.01, rel=1e-12)

    def test_mean_merit_random_obs_matches_integral(self):
        model = _random_obs_model()
        lo, hi = 0.005, 0.02
        # E[1/(1 + sigma^2)] for sigma^2 ~ U[lo, hi], unit signal variance
        factor = math.log((1 + hi) / (1 + lo)) / (hi - lo)
        assert ff.mean_merit(model) == pytest.approx(1e5 * factor, rel=5e-3)

    def test_lognormal_observation_sanity(self):
        model = ff.NetworkModel(
            prior=ff.SignalPrior(1.0),
            propagation=ff.PropagationModel(
                nominal_gain=1.0, distance_m=1.0, channel_noise_variance=1.0
            ),
            fading=ff.FadingModel(kind="none"),
            observation=ff.ObservationModel.lognormal(median=0.01, log_sigma=0.5),
        )
        _, gamma = ff.sample_batch(model, 2, seed=8, start_trial=0, n_trials=50_000)
        sigma_sq = 1.0 / gamma
        assert np.all(sigma_sq > 0)
        assert np.median(sigma_sq) == pytest.approx(0.01, rel=0.02)


class TestModelValidation:
    def test_propagation_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ff.PropagationModel(distance_m=(100.0, -1.0))
        for bad in (0.0, math.inf, math.nan):
            for field in ("nominal_gain", "channel_noise_variance", "distance_m"):
                with pytest.raises(ValueError, match=f"{field} must be strictly positive"):
                    ff.PropagationModel(**{field: bad})
            with pytest.raises(ValueError, match="distance_m must be strictly positive"):
                ff.PropagationModel(distance_m=(100.0, bad))
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="path_loss_exponent must be finite"):
                ff.PropagationModel(path_loss_exponent=bad)
        for field in ("nominal_gain", "channel_noise_variance", "distance_m"):
            message = rf"{field} must be above .* \(a finite 1/{field}\)"
            with pytest.raises(ValueError, match=message):
                ff.PropagationModel(**{field: 1e-320})

    def test_fading_kinds(self):
        with pytest.raises(ValueError):
            ff.FadingModel(kind="rician")
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="mean_square must be strictly positive"):
                ff.FadingModel(mean_square=bad)

    def test_observation_kinds(self):
        for kind, a, b in (("uniform", 0.0, 1.0), ("uniform", 0.02, 0.01),
                           ("uniform", 0.01, math.inf), ("lognormal", math.inf, 1.0),
                           ("lognormal", 0.01, math.inf), ("lognormal", 0.01, math.nan)):
            with pytest.raises(ValueError):
                getattr(ff.ObservationModel, kind)(a, b)
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma_sq must be strictly positive"):
                ff.ObservationModel(kind="fixed", sigma_sq=bad)
            with pytest.raises(ValueError, match="sigma_sq must be strictly positive"):
                ff.ObservationModel.fixed((0.01, bad))

    def test_a_model_must_not_draw_unusable_snrs(self):
        base = default_network()
        for change in (
            # gamma down to 1e-310: 1/gamma overflows
            {"prior": ff.SignalPrior(1e-300), "observation": ff.ObservationModel.uniform(1, 1e10)},
            # gamma overflows to inf
            {"prior": ff.SignalPrior(1e10), "observation": ff.ObservationModel.fixed(1e-300)},
            {"observation": ff.ObservationModel.lognormal(0.01, 200.0)},  # exp overflows
            {"propagation": ff.PropagationModel(path_loss_exponent=186.0)},  # d**nu overflows
            {"propagation": ff.PropagationModel(path_loss_exponent=-186.0)},  # s is inf
            {"fading": ff.FadingModel(mean_square=1e-300)},  # the smallest fade is subnormal
        ):
            with pytest.raises(ValueError, match="the sampler can draw"):
                dataclasses.replace(base, **change)
        # The widest lognormal spread the near-tie tests sample still builds.
        dataclasses.replace(base, observation=ff.ObservationModel.lognormal(0.01, 30.0))

    def test_counts_and_seeds_are_integers_in_range(self):
        for bad in (1.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                ff.RngStream(bad)
            with pytest.raises(ValueError, match="trial must be an integer"):
                ff.RngStream(0, bad)
        assert ff.RngStream(np.uint64(2**64 - 1), np.int32(3)) == ff.RngStream(2**64 - 1, 3)
        with pytest.raises(ValueError, match="k must be an integer"):
            ff.sample_batch(default_network(), 3.0, seed=0, start_trial=0, n_trials=1)
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                ff.mean_merit(default_network(), k)

    def test_per_sensor_distances(self):
        prop = ff.PropagationModel(
            nominal_gain=1.0, distance_m=(1.0, 2.0), channel_noise_variance=1.0
        )
        assert prop.mean_channel_snr(2) == pytest.approx([1.0, 0.25])
        with pytest.raises(ValueError):
            prop.mean_channel_snr(3)
        three = ff.PropagationModel(distance_m=(50.0, 100.0, 200.0))
        s, _ = ff.sample_batch(still_network(three), 3, seed=0, start_trial=0, n_trials=1)
        assert s[0] == pytest.approx(three.mean_channel_snr(3), rel=1e-15)
        with pytest.raises(ValueError, match="distance_m has 3 entries but K=4"):
            ff.sample_batch(still_network(three), 4, seed=0, start_trial=0, n_trials=1)
