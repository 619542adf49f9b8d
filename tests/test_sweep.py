"""The sweep driver: one pass over the trial chunks for every point and
policy, input validation at the boundary, and the process-pool budget."""

import math
import multiprocessing

import numpy as np
import pytest

import fadefusion as ff
import fadefusion.analysis as analysis
from fadefusion.analysis import Curve, estimate_sweep
from fadefusion.channel import default_network
from fadefusion.cli import main

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="counting patches reach pool workers only through fork",
)


class CountingPool(analysis.ProcessPoolExecutor):
    """Records the worker count of every pool; fork keeps test patches in the workers."""

    sizes: list = []

    def __init__(self, max_workers=None, **kwargs):
        CountingPool.sizes.append(max_workers)
        super().__init__(max_workers, mp_context=multiprocessing.get_context("fork"), **kwargs)


@pytest.fixture
def pools(monkeypatch):
    CountingPool.sizes = []
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", CountingPool)
    return CountingPool.sizes


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the chunk so that a few thousand trials span several chunks."""
    monkeypatch.setattr(analysis, "CHUNK_TRIALS", 700)
    return 700


BUDGETS = (0.001, 0.003, 0.01, 0.03)
POLICIES = (ff.EqualPolicy(), ff.OptimalPolicy(), ff.CappedPolicy(1.5))


class TestSweepEqualsPoints:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_every_estimate_matches_its_one_point_call(self, small_chunks, workers):
        model, trials, seed = default_network(), 2000, 9  # 3 chunks at 700 trials
        curves = [Curve("outage", 3, BUDGETS, policy, 0.02) for policy in POLICIES]
        curves += [Curve("distortion", 5, BUDGETS, policy) for policy in POLICIES]
        curves += [Curve("active", 5, BUDGETS), Curve("min-power", 5, (0.005, 0.01, 0.02))]
        sweep = estimate_sweep(model, curves, trials, seed, workers=workers)

        for curve, results in zip(curves, sweep):
            assert len(results) == len(curve.points)
            for x, result in zip(curve.points, results):
                if curve.kind == "outage":
                    point = ff.outage_probability(
                        model, curve.k, curve.policy, curve.d0, x, trials, seed, workers=workers
                    )
                elif curve.kind == "distortion":
                    point = ff.average_distortion(
                        model, curve.k, curve.policy, x, trials, seed, workers=workers
                    )
                elif curve.kind == "active":
                    point = ff.active_fraction(model, curve.k, x, trials, seed, workers=workers)
                else:
                    point = ff.average_min_power(model, curve.k, x, trials, seed, workers=workers)
                assert result == point, (curve.kind, curve.policy, x)

    def test_partial_sums_reduce_in_chunk_order(self, monkeypatch):
        monkeypatch.setattr(analysis, "CHUNK_TRIALS", 50)  # 40 chunks: order shows in the sum
        model, k, p_tot, trials, seed = default_network(), 4, 0.001, 2000, 13
        total, finite = 0, 0
        for start in range(0, trials, 50):  # the loop reference, chunk by chunk
            s, gamma = ff.sample_batch(model, k, seed, start, min(50, trials - start))
            mse = analysis.sum_power_mse_batch(gamma, s, 1.0, p_tot)[0]
            total += float(mse[np.isfinite(mse)].sum())
            finite += int(np.isfinite(mse).sum())
        for workers in (1, 3):
            avg = ff.average_distortion(model, k, ff.OptimalPolicy(), p_tot, trials, seed,
                                        workers=workers)
            assert avg.mean == total / finite

    def test_outage_is_monotone_along_the_shared_sample(self):
        curves = [Curve("outage", 3, BUDGETS, policy, 0.02) for policy in POLICIES]
        equal, optimal, capped = estimate_sweep(default_network(), curves, 3000, seed=4)
        for curve in (equal, optimal, capped):
            counts = [est.count for est in curve]
            assert counts == sorted(counts, reverse=True)
        for e, o, c in zip(equal, optimal, capped):
            assert o.count <= c.count <= e.count

    def test_floor_blocked_curve_needs_no_trials(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled a curve whose outage is certain")

        monkeypatch.setattr(analysis, "sample_batch", no_sampling)
        with pytest.warns(UserWarning, match="distortion floor"):
            (curve,) = estimate_sweep(
                default_network(), [Curve("outage", 2, BUDGETS, ff.EqualPolicy(), 1e-9)], 500, 1
            )
        assert curve == [ff.OutageEstimate(500, 500)] * len(BUDGETS)


class TestBoundaryValidation:
    @pytest.mark.parametrize("p_tot", [0.0, -1.0, math.nan, math.inf])
    def test_bad_budget_is_rejected(self, p_tot):
        with pytest.raises(ValueError, match="positive and finite"):
            ff.outage_probability(default_network(), 3, ff.EqualPolicy(), 0.02, p_tot, 100, 1)

    @pytest.mark.parametrize("d0", [0.0, math.nan, math.inf])
    def test_bad_min_power_target_is_rejected(self, d0):
        with pytest.raises(ValueError, match="positive and finite"):
            ff.average_min_power(default_network(), 3, d0, 100, 1)

    def test_zero_sensors_is_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            ff.outage_probability(default_network(), 0, ff.EqualPolicy(), 0.02, 0.01, 100, 1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_are_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ff.outage_probability(
                default_network(), 3, ff.EqualPolicy(), 0.02, 0.01, 100, 1, workers=workers
            )

    def test_cli_sweep_through_zero_watts_exits_2(self, tmp_path, capsys):
        config = tmp_path / "zero.ini"
        config.write_text(
            "[experiment]\nscenario = outage\nk = 3\ntrials = 100\nseed = 1\n"
            "[sweep]\naxis = p_tot\nspacing = linear\nstart = 0 W\nstop = 0.01 W\npoints = 3\n"
        )
        assert main(["run", "--config", str(config), "--output", str(tmp_path / "o.csv")]) == 2
        assert "positive and finite" in capsys.readouterr().err


@needs_fork
class TestProcessPoolBudget:
    def test_pool_is_capped_at_the_task_count(self, pools, small_chunks):
        model = default_network()
        one = ff.outage_probability(model, 3, ff.OptimalPolicy(), 0.02, 0.004, 1400, 5)
        four = ff.outage_probability(model, 3, ff.OptimalPolicy(), 0.02, 0.004, 1400, 5, workers=4)
        assert one == four
        assert pools == [2]  # two chunks: two processes, not four

    def test_single_task_starts_no_pool(self, pools):
        ff.outage_probability(default_network(), 3, ff.EqualPolicy(), 0.02, 0.004, 500, 5, workers=2)
        assert pools == []

    def test_run_starts_one_pool_and_samples_each_trial_once(
        self, tmp_path, monkeypatch, pools, small_chunks
    ):
        log = tmp_path / "sampled.txt"
        sample_batch = analysis.sample_batch

        def counting_sample_batch(model, k, seed, start_trial, n_trials):
            with open(log, "a") as handle:  # appended from every pool worker
                handle.write(f"{k} {start_trial} {n_trials}\n")
            return sample_batch(model, k, seed, start_trial, n_trials)

        monkeypatch.setattr(analysis, "sample_batch", counting_sample_batch)
        config = tmp_path / "compare.ini"
        config.write_text(
            "[experiment]\nscenario = outage-compare\nk = 3\npolicies = equal,optimal\n"
            "trials = 2000\nseed = 3\n"
            "[sweep]\naxis = p_tot\nstart = 0 dBm\nstop = 14 dBm\npoints = 8\n"
        )
        out = tmp_path / "compare.csv"
        assert main(["run", "--config", str(config), "--output", str(out), "--workers", "2"]) == 0

        assert pools == [2]
        ranges = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
        assert ranges == [(3, 0, 700), (3, 700, 700), (3, 1400, 600)]
        assert len(out.read_text().splitlines()) == 6 + 8
