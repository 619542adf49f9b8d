"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its own runtime budget.  Monte Carlo pieces are seed-pinned, so
every run reproduces identical numbers.
"""

import math
import time

import numpy as np
import pytest

import fadefusion as ff
from fadefusion.channel import default_network
from helpers import numeric_reference_allocation, optimality_certificate, random_snapshot


def report(number: int, ok: bool, message: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {message}")


def test_criterion_01_closed_form_vs_matrix_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        snap = random_snapshot(rng, kmax=10)
        alloc = ff.Allocation(tuple(rng.uniform(0.0, 10.0, snap.k)))
        if not np.any(alloc.alpha_prime * snap.s):
            continue
        closed = ff.blue_mse(snap, alloc)
        oracle = ff.blue_mse_matrix_oracle(snap, alloc)
        worst = max(worst, abs(closed - oracle) / closed)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"closed vs matrix BLUE variance, worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_sum_power_solver_vs_numeric_reference():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_mse = 0.0
    worst_stationarity = 0.0
    worst_complementarity = 0.0
    for _ in range(100):
        snap = random_snapshot(rng, kmax=8)
        p_tot = float(10 ** rng.uniform(-1, 2))
        alloc, diag = ff.max_performance_allocation(snap, p_tot)
        reference = numeric_reference_allocation(snap, p_tot)
        closed = ff.blue_mse(snap, alloc)
        worst_mse = max(worst_mse, abs(closed - ff.blue_mse(snap, reference)) / closed)
        stationarity, complementarity = optimality_certificate(snap, alloc, diag)
        worst_stationarity = max(worst_stationarity, float(np.max(stationarity)))
        worst_complementarity = max(
            worst_complementarity, float(-np.min(complementarity) / diag.dual_value)
        )
    elapsed = time.perf_counter() - started
    ok = (
        worst_mse <= 1e-6
        and worst_stationarity <= 1e-8
        and worst_complementarity <= 1e-8
        and elapsed < 30.0
    )
    report(
        2,
        ok,
        f"optimal allocation vs projected-gradient reference, worst rel distortion "
        f"{worst_mse:.2e}, KKT residuals {worst_stationarity:.2e}/"
        f"{worst_complementarity:.2e}, {elapsed:.1f}s",
    )
    assert worst_mse <= 1e-6
    assert worst_stationarity <= 1e-8
    assert worst_complementarity <= 1e-8
    assert elapsed < 30.0


def test_criterion_03_capped_solver_vs_box_reference():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(100):
        k = 6 if i < 40 else int(rng.integers(2, 9))
        snap = random_snapshot(rng, k=k)
        p_tot = float(10 ** rng.uniform(-1, 1.5))
        scale = 1.5 if i < 40 else float(rng.uniform(1.1, 3.0))
        caps = ff.CapVector.uniform(k, scale * p_tot / k)
        alloc, _ = ff.max_performance_with_caps(snap, p_tot, caps)  # raises after K passes
        closed = ff.blue_mse(snap, alloc)
        reference = numeric_reference_allocation(snap, p_tot, caps)
        worst = max(worst, abs(closed - ff.blue_mse(snap, reference)) / closed)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 60.0
    report(3, ok, f"capped allocation vs box reference, worst rel distortion {worst:.2e}, "
                  f"{elapsed:.1f}s (clipping bounded at K passes by construction)")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_04_min_power_tightness_and_duality():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_target = 0.0
    worst_power = 0.0
    for _ in range(100):
        snap = random_snapshot(rng)
        d0 = float(ff.distortion_floor(snap) * 10 ** rng.uniform(0.05, 2.0))
        alloc, _ = ff.min_power_allocation(snap, d0)
        worst_target = max(worst_target, abs(ff.blue_mse(snap, alloc) - d0) / d0)

        p_tot = float(10 ** rng.uniform(-1, 2))
        fwd, fwd_diag = ff.max_performance_allocation(snap, p_tot)
        back, back_diag = ff.min_power_allocation(snap, ff.blue_mse(snap, fwd))
        worst_power = max(worst_power, abs(back.total_power(snap) - p_tot) / p_tot)
        assert fwd_diag.active_count == back_diag.active_count
        assert np.array_equal(
            np.array(fwd.alpha_prime) > 0, np.array(back.alpha_prime) > 0
        )
    elapsed = time.perf_counter() - started
    ok = worst_target <= 1e-9 and worst_power <= 1e-8 and elapsed < 10.0
    report(4, ok, f"min-power tightness {worst_target:.2e}, duality round-trip power "
                  f"{worst_power:.2e}, active sets identical, {elapsed:.1f}s")
    assert worst_target <= 1e-9
    assert worst_power <= 1e-8
    assert elapsed < 10.0


def test_criterion_05_single_sensor_analytic_outage():
    started = time.perf_counter()
    model = default_network()
    trials = 100_000
    worst_sigmas = 0.0
    for seed, (p_tot, d0) in enumerate(
        [(0.005, 0.02), (0.02, 0.02), (0.1, 0.02), (0.5, 0.03), (1.0, 0.025)], start=500
    ):
        est = ff.outage_probability(model, 1, ff.EqualPolicy(), d0, p_tot, trials, seed=seed)
        s_star = 1.01 / (p_tot * (d0 - 0.01))
        expected = 1.0 - math.exp(-s_star / 1e5)
        se = math.sqrt(expected * (1.0 - expected) / trials)
        worst_sigmas = max(worst_sigmas, abs(est.probability - expected) / se)
    elapsed = time.perf_counter() - started
    ok = worst_sigmas <= 3.0 and elapsed < 30.0
    report(5, ok, f"single-sensor Monte Carlo vs closed-form outage, worst deviation "
                  f"{worst_sigmas:.2f} binomial SE over 5 operating points, {elapsed:.1f}s")
    assert worst_sigmas <= 3.0
    assert elapsed < 30.0


def test_criterion_06_diversity_order_from_log_log_slopes():
    started = time.perf_counter()
    model = default_network()
    trials = 1_000_000
    grids = {
        1: np.geomspace(0.005, 20.0, 7),
        2: np.geomspace(0.0016, 0.12, 7),
        3: np.geomspace(0.0014, 0.032, 7),
    }
    slopes = {}
    for k, grid in grids.items():
        outage = [
            ff.outage_probability(
                model, k, ff.EqualPolicy(), 0.02, float(p), trials, seed=600 + k
            ).probability
            for p in grid
        ]
        fit = ff.diversity_slope(grid, outage, trials=trials)
        assert len(fit.points) >= 4
        slopes[k] = fit.slope
    elapsed = time.perf_counter() - started
    ok = all(abs(slopes[k] - k) <= 0.2 * k for k in slopes) and elapsed < 600.0
    report(6, ok, "fitted diversity slopes " +
           ", ".join(f"K={k}: {v:.3f}" for k, v in slopes.items()) +
           f" (each within 20% of K), {elapsed:.0f}s")
    for k, slope in slopes.items():
        assert abs(slope - k) <= 0.2 * k
    assert elapsed < 600.0


def _crossing_power(grid, outage, level):
    """Budget at which the outage curve crosses the level (log-log interpolation)."""
    x = np.log10(np.asarray(outage))
    y = np.log10(np.asarray(grid))
    order = np.argsort(x)
    return 10 ** float(np.interp(math.log10(level), x[order], y[order]))


def test_criterion_07_optimal_outage_dominates_equal():
    started = time.perf_counter()
    model = default_network()
    grid = np.geomspace(0.002, 0.02, 6)
    trials = 200_000
    equal_curve, optimal_curve = [], []
    for p in grid:
        equal = ff.outage_probability(
            model, 3, ff.EqualPolicy(), 0.02, float(p), trials, seed=700
        )
        optimal = ff.outage_probability(
            model, 3, ff.OptimalPolicy(), 0.02, float(p), trials, seed=700
        )
        assert optimal.count <= equal.count  # same snapshots, per-trial dominance
        equal_curve.append(equal.probability)
        optimal_curve.append(optimal.probability)
    p_equal = _crossing_power(grid, equal_curve, 1e-2)
    p_optimal = _crossing_power(grid, optimal_curve, 1e-2)
    elapsed = time.perf_counter() - started
    ok = p_optimal < p_equal and elapsed < 300.0
    report(7, ok, f"optimal outage <= equal at every point; at outage 1e-2 optimal needs "
                  f"{p_optimal:.4g} W vs equal {p_equal:.4g} W "
                  f"({10*math.log10(p_equal/p_optimal):.2f} dB gain), {elapsed:.0f}s")
    assert p_optimal < p_equal
    assert elapsed < 300.0


def test_criterion_08_distortion_floor_and_sandwich():
    started = time.perf_counter()
    model = default_network()
    p_tot = 1e-4
    avg = ff.average_distortion(model, 10_000, ff.EqualPolicy(), p_tot, 100, seed=800)
    floor = ff.d_infinity(model, p_tot)
    mean_gap = abs(avg.mean - floor) / floor

    rng = np.random.default_rng(801)
    violations = 0
    for _ in range(10_000):
        snap = random_snapshot(rng)
        if not ff.sandwich_check(snap, float(10 ** rng.uniform(-2, 2))).ok:
            violations += 1
    elapsed = time.perf_counter() - started
    ok = mean_gap <= 0.02 and violations == 0 and elapsed < 120.0
    report(8, ok, f"large-network equal-power mean within {mean_gap:.3%} of the floor; "
                  f"{violations} sandwich violations in 10000 snapshots, {elapsed:.0f}s")
    assert mean_gap <= 0.02
    assert violations == 0
    assert elapsed < 120.0


def test_criterion_09_rate_function_and_chernoff_bound():
    started = time.perf_counter()
    worst = 0.0
    for ratio in np.geomspace(0.05, 5.0, 20):
        closed = ff.rate_function_exponential(ratio * 2.0, 2.0)
        numeric = ff.rate_function_numeric(ff.RateFunctionQuery(a=ratio * 2.0, mean_b=2.0))
        worst = max(worst, abs(closed - numeric))

    model = ff.NetworkModel(  # unit gamma, merit exponential with mean 1
        prior=ff.SignalPrior(1.0),
        propagation=ff.PropagationModel(
            nominal_gain=2.0, distance_m=1.0, channel_noise_variance=1.0
        ),
        fading=ff.FadingModel(kind="rayleigh"),
        observation=ff.ObservationModel.fixed(1.0),
    )
    trials = 1_000_000
    excess = 0.0
    for k in (1, 5, 10, 20):
        s, gamma = ff.sample_batch(model, k, seed=900 + k, start_trial=0, n_trials=trials)
        means = (s / (1.0 + 1.0 / gamma)).mean(axis=1)
        for a in (0.3, 0.5, 0.8):
            empirical = float(np.mean(means < a))
            bound = ff.chernoff_bound(k, ff.rate_function_exponential(a, 1.0))
            se = math.sqrt(max(empirical * (1 - empirical), 1e-12) / trials)
            excess = max(excess, empirical - (bound + 3 * se))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and excess <= 0.0 and elapsed < 300.0
    report(9, ok, f"numeric vs closed rate function worst {worst:.2e}; tail bound never "
                  f"violated (max excess {excess:.2e}) for K in 1/5/10/20, {elapsed:.0f}s")
    assert worst <= 1e-8
    assert excess <= 0.0
    assert elapsed < 300.0


def test_criterion_10_min_power_savings_trend():
    started = time.perf_counter()
    model = default_network()
    floor = 1e-4  # K=100 fixed observation SNRs of 100 against unit signal variance
    targets = np.geomspace(1.01 * floor, 1.5 * floor, 10)
    ratios = []
    for d0 in targets:
        summary = ff.average_min_power(model, 100, float(d0), 10_000, seed=1000)
        assert summary.infeasible == 0
        assert summary.mean_optimal_w <= summary.mean_equal_w
        ratios.append(summary.mean_equal_w / summary.mean_optimal_w)
    monotone = all(ratios[i + 1] <= ratios[i] for i in range(len(ratios) - 1))
    elapsed = time.perf_counter() - started
    ok = monotone and elapsed < 600.0
    report(10, ok, f"optimal <= equal mean power at all 10 strict targets; savings ratio "
                   f"falls {ratios[0]:.3f} -> {ratios[-1]:.3f} as the target relaxes, "
                   f"{elapsed:.0f}s")
    assert monotone
    assert elapsed < 600.0


def test_criterion_11_cli_byte_identical_reruns(tmp_path):
    started = time.perf_counter()
    out1, out2, out3 = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    config = tmp_path / "exp.ini"
    config.write_text(
        "[experiment]\nscenario = outage-compare\nk = 3\npolicies = equal,optimal\n"
        "trials = 150000\nseed = 42\n"
        "[sweep]\naxis = p_tot\nstart = 3 dBm\nstop = 13 dBm\npoints = 3\n"
        f"[output]\npath = {out1}\n"
    )
    from fadefusion.cli import main

    assert main(["run", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config), "--output", str(out2)]) == 0
    assert main(["run", "--config", str(config), "--output", str(out3), "--workers", "4"]) == 0
    identical = out1.read_bytes() == out2.read_bytes() == out3.read_bytes()
    elapsed = time.perf_counter() - started
    ok = identical and elapsed < 60.0
    report(11, ok, f"CSV byte-identical across reruns and 1 vs 4 workers, {elapsed:.0f}s")
    assert identical
    assert elapsed < 60.0
