"""The sweep driver: one pass over the trial chunks for every point and
policy, input validation at the boundary, and the process-pool budget."""

import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fadefusion as ff
import fadefusion.analysis as analysis
from fadefusion.analysis import Curve, estimate_sweep
from fadefusion.channel import default_network
from fadefusion.cli import main
from test_properties import log_uniform

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
        with pytest.warns(UserWarning, match="distortion floor") as record:
            (curve,) = estimate_sweep(
                default_network(), [Curve("outage", 2, BUDGETS, ff.EqualPolicy(), 1e-9)], 500, 1
            )
        assert curve == [ff.OutageEstimate(500, 500)] * len(BUDGETS)
        assert record[0].filename == __file__


def kernel_mse(policy, k, s, gamma, p_tot):
    """Distortion of every trial at one budget from the public per-budget kernels."""
    if isinstance(policy, ff.EqualPolicy):
        return analysis.equal_power_mse_batch(gamma, s, 1.0, p_tot)
    if isinstance(policy, ff.OptimalPolicy):
        return analysis.sum_power_mse_batch(gamma, s, 1.0, p_tot)[0]
    return analysis.capped_mse_batch(gamma, s, 1.0, p_tot, policy.cap_scale * p_tot / k)


def kernel_outage_counts(policy, k, s, gamma, d0, budgets):
    """Outage counts from the public per-budget kernels, every trial at every budget."""
    return [int(np.count_nonzero(kernel_mse(policy, k, s, gamma, p_tot) > d0))
            for p_tot in budgets]


class TestOutageCountsAgainstKernels:
    """Outage is counted on the shrinking set of trials still in outage; the per-budget
    kernels, run on every trial at every budget, are its independent oracle."""

    BUDGETS = (0.01, 0.001, 0.3, 0.003, 0.01, 1.0, 0.03, 0.001)  # unsorted, with repeats
    # (K, d0): K=3 chunks are column-major and K=20 chunks row-major.  At d0 0.02 and 0.0015
    # every trial is out of outage before the last budget; just above the floor (0.01/K)
    # outage stays near 1 at every budget.
    CASES = ((3, 0.02), (3, 0.003337), (20, 0.0015), (20, 0.0005005))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_counts_equal_the_per_budget_kernels(self, small_chunks, workers):
        model, trials, seed = default_network(), 1500, 21  # 3 chunks at 700 trials
        curves = [Curve("outage", k, self.BUDGETS, policy, d0)
                  for k, d0 in self.CASES for policy in POLICIES]
        sweep = estimate_sweep(model, curves, trials, seed, workers=workers)
        samples = {k: ff.sample_batch(model, k, seed, 0, trials) for k in (3, 20)}
        emptied = near_one = 0
        for curve, results in zip(curves, sweep):
            s, gamma = samples[curve.k]
            want = kernel_outage_counts(curve.policy, curve.k, s, gamma, curve.d0, curve.points)
            assert [est.count for est in results] == want, (curve.k, curve.policy, curve.d0)
            emptied += want[self.BUDGETS.index(0.3)] == 0
            near_one += min(want) >= 0.99 * trials
        assert emptied == near_one == 2 * len(POLICIES)

    def test_counts_equal_the_kernels_on_a_row_whose_distortion_rose(self):
        # A gamma of 6.7e14 next to two below 1: the old closed form read 2.438 at 1.189 W and
        # 2.667 at 1.304 W, so the shrinking set dropped a row the kernel had back in outage.
        gamma = np.array([[0.2097248702967326, 670417885968256.8, 0.2156751830664846]])
        s = np.array([[13.899745940081491, 0.1494446240748971, 12576.07701457387]])
        curve = Curve("outage", 3, (1.18901674244199, 1.3040319151841289), ff.OptimalPolicy(), 2.5)
        want = kernel_outage_counts(curve.policy, 3, s, gamma, curve.d0, curve.points)
        assert analysis._outage_counts(curve, s, gamma, 1.0) == [(count,) for count in want]

    def test_a_one_sensor_capped_curve_is_the_optimal_one(self):
        # At K=1 the cap of 1.5 P never binds.  Down to 1e-16 W the cap's breakpoint rounded
        # onto the turn-on breakpoint on some rows, which the capped kernel read as outages.
        rng = np.random.default_rng(9)
        gamma, s = (10 ** rng.uniform(lo, hi, (2000, 1)) for lo, hi in ((-2, 18), (-3, 8)))
        budgets = tuple(np.geomspace(1e-16, 1e2, 10))
        for d0 in (1e2, 1e8, 1e14):
            capped, optimal = (analysis._outage_counts(Curve("outage", 1, budgets, policy, d0),
                                                       s, gamma, 1.0)
                               for policy in (ff.CappedPolicy(1.5), ff.OptimalPolicy()))
            assert capped == optimal
            assert 0 < optimal[0][0] and optimal[-1][0] < 2000


#: Channel SNRs over 1e-3..1e8, one in ten dead.
channel_snrs = st.tuples(log_uniform(-3, 8), st.integers(0, 9)).map(lambda x: x[0] if x[1] else 0.0)


class TestEqualSplitScreen:
    """An optimal outage curve drops the rows whose equal-split distortion at the lowest
    budget is at most d0 (1 - 1e-9): the optimal allocation never does worse than the equal
    split, so those rows are out of outage at every budget.  The per-budget kernels on every
    row are the oracle, on the screen's edge and at extreme magnitudes."""

    BUDGETS = (0.003, 0.001, 0.01)  # unsorted

    def check(self, k, s, gamma, d0, budgets):
        curve = Curve("outage", k, tuple(budgets), ff.OptimalPolicy(), d0)
        want = kernel_outage_counts(curve.policy, k, s, gamma, d0, curve.points)
        assert analysis._outage_counts(curve, s, gamma, 1.0) == [(count,) for count in want]
        return want

    def test_a_threshold_at_a_rows_own_equal_split_distortion(self):
        # At K=1 the optimal and equal distortions are the same number in exact arithmetic; in
        # floats the optimal kernel reads one ulp above the equal split on about a quarter of
        # these rows.  With d0 its own equal-split value, such a row is in outage at the lowest
        # budget, and a screen without its margin would drop it.
        s, gamma = ff.sample_batch(default_network(), 1, 31, 0, 400)
        lowest = min(self.BUDGETS)
        equal = analysis.equal_power_mse_batch(gamma, s, 1.0, lowest)
        above = analysis.sum_power_mse_batch(gamma, s, 1.0, lowest)[0] > equal
        rows = np.concatenate([np.flatnonzero(above)[:20], np.flatnonzero(~above)[:20]])
        assert rows.size == 40
        for row in rows:
            want = self.check(1, s[[row]], gamma[[row]], float(equal[row]), self.BUDGETS)
            assert want[self.BUDGETS.index(lowest)] == above[row]
        self.check(1, s, gamma, float(equal[rows[0]]), self.BUDGETS)

    def test_rows_with_every_channel_dead_stay_in_outage(self):
        s, gamma = ff.sample_batch(default_network(), 3, 32, 0, 300)
        s[::3] = 0.0
        want = self.check(3, s, gamma, 0.02, self.BUDGETS)
        assert min(want) >= 100
        assert self.check(3, np.zeros_like(s), gamma, 0.02, self.BUDGETS) == [300] * 3

    @given(
        st.sampled_from([1, 3, 20]).flatmap(lambda k: st.tuples(st.just(k), st.lists(
            st.tuples(st.lists(log_uniform(-2, 18), min_size=k, max_size=k),
                      st.lists(channel_snrs, min_size=k, max_size=k)),
            min_size=1, max_size=6))),
        st.lists(log_uniform(-14, 2), min_size=1, max_size=4),
        st.integers(0, 5),
        st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 2e-16, 1.0 + 2e-16, 0.5, 2.0]),
    )
    def test_counts_equal_the_kernels_at_extreme_magnitudes(self, rows, budgets, pick, factor):
        # gamma 1e-2..1e18, s 1e-3..1e8 with one in ten dead, budgets 1e-14..1e2 W; d0 sits on
        # or next to one row's equal-split distortion at the lowest budget.
        k, rows = rows
        gamma, s = (np.array(x) for x in zip(*rows))
        if k < 8:  # as sample_batch hands them out
            gamma, s = np.asfortranarray(gamma), np.asfortranarray(s)
        equal = analysis.equal_power_mse_batch(gamma, s, 1.0, min(budgets))[pick % len(rows)]
        self.check(k, s, gamma, float(equal) * factor if math.isfinite(equal) else 1.0, budgets)


class TestDistortionAndActiveAgainstKernels:
    """Distortion and active curves evaluate each policy's per-row arrays, built once per
    chunk, at every budget; the public per-budget kernels, reduced chunk by chunk in the
    same order, are their independent oracle."""

    BUDGETS = TestOutageCountsAgainstKernels.BUDGETS  # unsorted, with repeats

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sums_equal_the_per_budget_kernels(self, small_chunks, workers):
        model, trials, seed = default_network(), 1500, 23  # 3 chunks at 700 trials
        # K=3 chunks are column-major and K=20 chunks row-major.
        curves = [Curve("distortion", k, self.BUDGETS, policy) for k in (3, 20) for policy in POLICIES]
        curves += [Curve("active", k, self.BUDGETS) for k in (3, 20)]
        sweep = estimate_sweep(model, curves, trials, seed, workers=workers)
        chunks = {k: [ff.sample_batch(model, k, seed, start, min(small_chunks, trials - start))
                      for start in range(0, trials, small_chunks)] for k in (3, 20)}
        for curve, results in zip(curves, sweep):
            for p_tot, result in zip(curve.points, results):
                total = finite = active = 0
                for s, gamma in chunks[curve.k]:
                    if curve.kind == "active":
                        active += int(analysis.sum_power_mse_batch(gamma, s, 1.0, p_tot)[1].sum())
                        continue
                    mse = kernel_mse(curve.policy, curve.k, s, gamma, p_tot)
                    ok = np.isfinite(mse)
                    total += float(mse[ok].sum())
                    finite += int(ok.sum())
                if curve.kind == "active":
                    want = active / (trials * curve.k)
                else:
                    want = ff.AverageDistortion(total / finite, trials - finite, trials)
                assert result == want, (curve.kind, curve.k, curve.policy, p_tot)
        assert all(min(results) < 1.0 for results in sweep[-2:])  # some sensors turn off


@needs_fork
class TestBlocksChangeNoByte:
    """Each chunk is sampled and evaluated in blocks of trials.  Counts add up over the
    blocks and float sums run once over the chunk's per-row values, so the block size must
    change no byte of any estimate; one block per chunk is the reference."""

    CASES = ((3, 0.02), (20, 0.0015), (100, 0.001))  # (K, outage threshold d0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_match_one_block_per_chunk(self, monkeypatch, pools, small_chunks, workers):
        model, trials, seed = default_network(), 1500, 29  # chunks of 700, 700 and 100 trials
        curves = []
        for k, d0 in self.CASES:
            curves += [Curve("outage", k, BUDGETS, policy, d0) for policy in POLICIES]
            curves += [Curve("distortion", k, BUDGETS, policy) for policy in POLICIES]
            curves += [Curve("active", k, BUDGETS), Curve("min-power", k, (0.012 / k, 0.03 / k))]
        monkeypatch.setattr(analysis, "_BLOCK_VALUES", 1 << 62)
        want = estimate_sweep(model, curves, trials, seed, workers=workers)
        # 2^11 values: blocks of 512, 64 and 16 trials, so every chunk ends on a short block.
        monkeypatch.setattr(analysis, "_BLOCK_VALUES", 1 << 11)
        assert [analysis._block_rows(k) for k, _ in self.CASES] == [512, 64, 16]
        assert estimate_sweep(model, curves, trials, seed, workers=workers) == want
        assert pools == ([2, 2] if workers == 2 else [])
        assert all(any(0 < est.count < trials for est in results)  # no trivial outage curve
                   for curve, results in zip(curves, want) if curve.kind == "outage")


# Peak RSS of this process since it started, in KiB.  Not ru_maxrss: Linux carries the
# launching process's peak across exec into it, and a long pytest run peaks high.
PEAK_RSS_RUN = """
import fadefusion as ff
from fadefusion.analysis import CHUNK_TRIALS, Curve, estimate_sweep

curve = Curve("outage", 100, (0.01,), ff.CappedPolicy(1.5), 0.0009)
estimate_sweep(ff.default_network(), [curve], CHUNK_TRIALS, 1)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_capped_k100_chunk_runs_in_bounded_memory():
    # Evaluated whole, this chunk's capped scan held five (65 536, 200) arrays: ~900 MB peak.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_RUN], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 200 * 1024


class TestBoundaryValidation:
    @pytest.mark.parametrize("p_tot", [0.0, -1.0, math.nan, math.inf])
    def test_bad_budget_is_rejected(self, p_tot):
        with pytest.raises(ValueError, match="positive and finite"):
            ff.outage_probability(default_network(), 3, ff.EqualPolicy(), 0.02, p_tot, 100, 1)

    @pytest.mark.parametrize("d0", [0.0, math.nan, math.inf])
    def test_bad_min_power_target_is_rejected(self, d0):
        with pytest.raises(ValueError, match="positive and finite"):
            ff.average_min_power(default_network(), 3, d0, 100, 1)

    def test_cap_scale_may_be_unbounded_but_not_nan(self):
        assert ff.CappedPolicy(math.inf).cap_scale == math.inf
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError, match="cap_scale must be strictly positive, got"):
                ff.CappedPolicy(bad)

    def test_zero_sensors_is_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            ff.outage_probability(default_network(), 0, ff.EqualPolicy(), 0.02, 0.01, 100, 1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_are_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ff.outage_probability(
                default_network(), 3, ff.EqualPolicy(), 0.02, 0.01, 100, 1, workers=workers
            )

    @pytest.mark.parametrize(
        "k, seed, workers, message",
        [(3, 2**64, 1, "seed must be >= 0 and < "), (3, -1, 1, "seed must be >= 0 and < "),
         (3.0, 1, 1, "k must be an integer"), (3, 1, 1.5, "workers must be an integer")],
        ids=["seed-2**64", "seed--1", "k-3.0", "workers-1.5"],
    )
    def test_counts_and_seeds_must_be_integers_in_range(self, k, seed, workers, message):
        with pytest.raises(ValueError, match=message):
            ff.outage_probability(
                default_network(), k, ff.EqualPolicy(), 0.02, 0.01, 100, seed, workers=workers
            )

    def test_numpy_integers_are_counts_and_seeds(self):
        args = (default_network(), 3, ff.EqualPolicy(), 0.02, 0.01, 100, 2**64 - 1)
        assert ff.outage_probability(*args) == ff.outage_probability(
            args[0], np.int64(3), *args[2:5], np.int32(100), np.uint64(2**64 - 1),
            workers=np.int64(1),
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
