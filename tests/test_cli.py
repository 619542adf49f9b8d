import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fadefusion as ff
import fadefusion.cli as cli
from fadefusion import errors
from fadefusion.analysis import CHUNK_TRIALS
from fadefusion.cli import main, read_snapshot_file
from fadefusion.config import SCENARIOS, SEED_ENV_VAR, ConfigError, load_config

ROOT = Path(__file__).parent.parent
SHIPPED_CONFIGS = [*sorted(ROOT.glob("tests/golden/*.ini")),
                   *sorted(ROOT.glob("perfbench/workloads/*.ini"))]

BASE_CONFIG = """
[experiment]
scenario = outage
k = 1,3
policy = equal
d0 = 0.02
trials = 20000
seed = 11

[sweep]
axis = p_tot
start = -20 dBm
stop = 10 dBm
points = 4

[output]
path = {out}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_load_and_defaults(self, tmp_path):
        cfg_path = write(tmp_path, "e.ini", BASE_CONFIG.format(out=tmp_path / "o.csv"))
        cfg = load_config(cfg_path)
        assert cfg.scenario == "outage"
        assert cfg.k_values == (1, 3)
        assert cfg.model.prior.variance_theta == 1.0
        assert cfg.model.propagation.nominal_gain == pytest.approx(1e-3)
        assert cfg.model.propagation.channel_noise_variance == pytest.approx(1e-12)
        assert cfg.model.observation.sigma_sq == 0.01
        assert cfg.cap_scale == 1.5
        assert cfg.sweep.values()[0] == pytest.approx(1e-5)

    def test_unknown_scenario(self, tmp_path):
        bad = BASE_CONFIG.replace("scenario = outage", "scenario = wat")
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "e.ini", bad.format(out=tmp_path / "o.csv")))

    def test_scenarios_requiring_single_k(self, tmp_path):
        bad = BASE_CONFIG.replace("scenario = outage", "scenario = active-fraction")
        with pytest.raises(ConfigError, match="single k"):
            load_config(write(tmp_path, "e.ini", bad.format(out=tmp_path / "o.csv")))

    def test_min_power_needs_d0_axis(self, tmp_path):
        bad = BASE_CONFIG.replace("scenario = outage", "scenario = min-power").replace(
            "k = 1,3", "k = 10"
        )
        with pytest.raises(ConfigError, match="sweeps d0"):
            load_config(write(tmp_path, "e.ini", bad.format(out=tmp_path / "o.csv")))

    @pytest.mark.parametrize(
        "line, typo, key",
        [
            ("seed = 11\n", "polcy = optimal\n", "experiment.polcy"),
            ("path = {out}\n", "[modle]\nfading = nakagami\n", "modle.fading"),
        ],
        ids=["key-typo", "section-typo"],
    )
    def test_unknown_file_key_is_rejected(self, tmp_path, capsys, line, typo, key):
        text = BASE_CONFIG.replace(line, line + typo)
        cfg_path = write(tmp_path, "e.ini", text.format(out=tmp_path / "o.csv"))
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_config(cfg_path)
        assert main(["run", "--config", cfg_path, "--trials", "10"]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_experiment_files_load(self, path):
        assert load_config(str(path)).scenario

    def test_percent_signs_are_read_literally(self, tmp_path):
        in_file = tmp_path / "file%20.csv"
        cfg_path = write(tmp_path, "e.ini", BASE_CONFIG.format(out=in_file))
        assert load_config(cfg_path).output == str(in_file)
        for option in ("--set", "--output"):
            out = tmp_path / f"{option[2:]}%(k)s%.csv"
            value = f"output.path={out}" if option == "--set" else str(out)
            assert main(["run", "--config", cfg_path, "--trials", "10", option, value]) == 0
            assert out.exists()

    def test_env_seed_and_flag_priority(self, tmp_path, monkeypatch):
        no_seed = BASE_CONFIG.replace("seed = 11\n", "")
        cfg_path = write(tmp_path, "e.ini", no_seed.format(out=tmp_path / "o.csv"))
        monkeypatch.setenv(SEED_ENV_VAR, "777")
        assert load_config(cfg_path).seed == 777
        assert load_config(cfg_path, overrides={"experiment.seed": "5"}).seed == 5
        monkeypatch.delenv(SEED_ENV_VAR)
        assert load_config(cfg_path).seed == 0


class TestRun:
    def test_csv_contract_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        cfg_path = write(tmp_path, "e.ini", BASE_CONFIG.format(out=out1))
        assert main(["run", "--config", cfg_path]) == 0
        body = out1.read_text().splitlines()
        assert body[0] == "# fadefusion-csv v1"
        assert body[1] == "# scenario=outage"
        assert body[2] == "# seed=11"
        assert body[3] == "# trials=20000"
        assert body[4].startswith("# config_hash=")
        assert body[5] == "p_tot_w,p_tot_dbm,outage_k1,half_width_k1,outage_k3,half_width_k3"
        values = np.array([row.split(",") for row in body[6:]], dtype=float)
        assert values.shape == (4, 6)
        assert np.all(values[:, 0] > 0)
        assert np.all((values[:, 2] >= 0) & (values[:, 2] <= 1))
        assert np.all((values[:, 4] >= 0) & (values[:, 4] <= 1))

        out2 = tmp_path / "b.csv"
        assert main(["run", "--config", cfg_path, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        out3 = tmp_path / "c.csv"
        assert main(["run", "--config", cfg_path, "--output", str(out3), "--workers", "3"]) == 0
        assert out1.read_bytes() == out3.read_bytes()

    def test_seed_override_changes_hash_line(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg_path = write(tmp_path, "e.ini", BASE_CONFIG.format(out=out))
        assert main(["run", "--config", cfg_path, "--seed", "99", "--trials", "500"]) == 0
        assert "# seed=99" in out.read_text()
        argv = ["run", "--config", cfg_path, "--set", "experiment.seed=3", "--seed", "5"]
        assert main(argv + ["--trials", "500"]) == 0
        assert "# seed=5" in out.read_text()

    def test_set_overrides(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg_path = write(tmp_path, "e.ini", BASE_CONFIG.format(out=out))
        assert (
            main(
                [
                    "run",
                    "--config",
                    cfg_path,
                    "--trials",
                    "500",
                    "--set",
                    "experiment.policy=optimal",
                    "--set",
                    "sweep.points=2",
                ]
            )
            == 0
        )
        assert len(out.read_text().splitlines()) == 6 + 2

    def test_bad_set_key_exits_2(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "e.ini", BASE_CONFIG.format(out=tmp_path / "o.csv"))
        assert main(["run", "--config", cfg_path, "--set", "experiment.nope=1"]) == 2
        capsys.readouterr()
        for setting in ("sigma_theta_sq=inf", "sigma_k_sq=inf", "distance_m=inf",
                        "path_loss_exponent=nan"):
            assert main(["run", "--config", cfg_path, "--set", f"model.{setting}"]) == 2, setting
            assert "invalid [model] section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings",
        [("sigma_theta_sq=1e-320",),
         ("observation=lognormal", "obs_median=0.01", "obs_log_sigma=200"),
         ("path_loss_exponent=186",)],
        ids=["subnormal-prior", "lognormal-overflow", "path-loss-overflow"],
    )
    def test_a_model_that_can_draw_unusable_snrs_exits_2(self, tmp_path, capsys, settings):
        out = tmp_path / "o.csv"
        argv = ["run", "--config", write(tmp_path, "e.ini", BASE_CONFIG.format(out=out))]
        for setting in settings:
            argv += ["--set", f"model.{setting}"]
        assert main(argv + ["--trials", "200"]) == 2
        assert capsys.readouterr().err.startswith("error: invalid [model] section: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [("experiment.k=0", "k must be >= 1"), ("experiment.trials=0", "trials must be >= 1"),
         ("experiment.seed=-1", "seed must be >= 0 and < 18446744073709551616"),
         ("experiment.seed=18446744073709551616", "seed must be >= 0 and < 18446744073709551616"),
         ("output.workers=0", "workers must be >= 1")],
    )
    def test_counts_and_seeds_are_checked_before_any_trial(
        self, tmp_path, capsys, setting, message
    ):
        out = tmp_path / "o.csv"
        cfg_path = write(tmp_path, "e.ini", BASE_CONFIG.format(out=out))
        assert main(["run", "--config", cfg_path, "--set", setting]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_missing_config_exits_2(self):
        assert main(["run", "--config", "/nonexistent.ini"]) == 2

    def test_single_trial_runs_are_valid(self, tmp_path):
        out = tmp_path / "one.csv"
        cfg_path = write(tmp_path, "e.ini", BASE_CONFIG.format(out=out))
        assert main(["run", "--config", cfg_path, "--trials", "1"]) == 0
        rows = out.read_text().splitlines()
        values = np.array([r.split(",") for r in rows[6:]], dtype=float)
        assert set(values[:, 2]) <= {0.0, 1.0}

    def test_other_scenarios_produce_expected_columns(self, tmp_path):
        specs = {
            "distortion": (
                "scenario = distortion\nk = 1,3\npolicy = equal\ntrials = 2000\nseed = 1",
                "p_tot_w,p_tot_dbm,avg_mse_k1,excluded_k1,avg_mse_k3,excluded_k3",
            ),
            "outage-compare": (
                "scenario = outage-compare\nk = 3\npolicies = equal,optimal\n"
                "trials = 2000\nseed = 1",
                "p_tot_w,p_tot_dbm,outage_equal,half_width_equal,"
                "outage_optimal,half_width_optimal",
            ),
            "active-fraction": (
                "scenario = active-fraction\nk = 20\ntrials = 2000\nseed = 1",
                "p_tot_w,p_tot_dbm,active_fraction",
            ),
        }
        for name, (experiment, header) in specs.items():
            out = tmp_path / f"{name}.csv"
            text = (
                f"[experiment]\n{experiment}\n"
                "[sweep]\naxis = p_tot\nstart = -10 dBm\nstop = 10 dBm\npoints = 3\n"
                f"[output]\npath = {out}\n"
            )
            assert main(["run", "--config", write(tmp_path, f"{name}.ini", text)]) == 0
            assert out.read_text().splitlines()[5] == header

    def test_min_power_scenario_and_infeasible_sweep(self, tmp_path):
        out = tmp_path / "mp.csv"
        text = (
            "[experiment]\nscenario = min-power\nk = 20\ntrials = 400\nseed = 2\n"
            "[sweep]\naxis = d0\nstart = 0.002\nstop = 0.02\npoints = 3\n"
            f"[output]\npath = {out}\n"
        )
        assert main(["run", "--config", write(tmp_path, "mp.ini", text)]) == 0
        rows = out.read_text().splitlines()
        assert rows[5] == (
            "d0,mean_power_optimal_w,mean_power_equal_w,"
            "equal_over_optimal_ratio,infeasible_trials"
        )
        data = np.array([r.split(",") for r in rows[6:]], dtype=float)
        assert np.all(data[:, 1] <= data[:, 2])

        # K=20 floor is 1/2000; a sweep entirely below it is infeasible everywhere
        bad = text.replace("start = 0.002", "start = 0.0001").replace(
            "stop = 0.02", "stop = 0.0004"
        )
        assert main(["run", "--config", write(tmp_path, "bad.ini", bad)]) == 3

    def test_min_power_at_a_huge_prior_computes_no_infeasible_total(self, tmp_path):
        # At sigma_theta^2 = 1.08e157 the last point's 54 infeasible rows overflowed a total that
        # was then masked out; the suite's RuntimeWarning filter turns that into a failure.
        out = tmp_path / "mp.csv"
        text = (
            "[experiment]\nscenario = min-power\nk = 97\ntrials = 200\nseed = 281\n"
            "[sweep]\naxis = d0\nstart = 0.000484\nstop = 0.000114\npoints = 3\n"
        )
        argv = ["run", "--config", write(tmp_path, "mp.ini", text), "--output", str(out),
                "--workers", "1"]
        for setting in ("sigma_theta_sq=1.08e157", "observation=uniform", "obs_low=0.005",
                        "obs_high=0.02"):
            argv += ["--set", f"model.{setting}"]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[6:]]
        assert [row[-1] for row in rows] == ["0", "0", "54"]
        assert all(math.isfinite(float(x)) for row in rows for x in row)

    def test_a_fresh_cli_process_writes_the_same_bytes_at_two_workers(self, tmp_path):
        # main() runs in this process, where numpy loaded long ago; a fresh CLI process
        # forks its pool from its own single-threaded start-up.  Two chunks, so two tasks.
        text = (
            "[experiment]\nscenario = outage-compare\nk = 3\npolicies = equal,optimal\n"
            f"trials = {CHUNK_TRIALS + 4000}\nseed = 7\n"
            "[sweep]\naxis = p_tot\nstart = 0 dBm\nstop = 14 dBm\npoints = 4\n"
        )
        config = write(tmp_path, "e.ini", text)
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}.csv"
            argv = [sys.executable, "-m", "fadefusion.cli", "run", "--config", config,
                    "--output", str(out), "--workers", workers]
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


SNAPSHOT_ONE = """
# single link
sigma_theta_sq = 1.0
100 1.0
"""

SNAPSHOT_HET = """
sigma_theta_sq = 1.0
100 2.0
50  1.0
2   0.25
"""


class TestAlloc:
    def test_snapshot_parsing(self, tmp_path):
        snap = read_snapshot_file(write(tmp_path, "s.txt", SNAPSHOT_HET))
        assert snap.k == 3
        assert snap.gamma == pytest.approx([100.0, 50.0, 2.0])
        noiseless = "sigma_theta_sq = 2.0\nnoiseless 5.0\n"
        snap2 = read_snapshot_file(write(tmp_path, "n.txt", noiseless))
        assert math.isinf(snap2.gamma[0])

    def test_snapshot_parse_errors(self, tmp_path):
        for text in ("100 1.0\n", "sigma_theta_sq = 1.0\n1 2 3\n", "sigma_theta_sq = 1.0\n"):
            with pytest.raises(ConfigError):
                read_snapshot_file(write(tmp_path, "bad.txt", text))

    def test_min_power_single_sensor(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", SNAPSHOT_ONE)
        assert main(["alloc", path, "--target", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "101" in out and "yes" in out
        assert "total_power_w=101" in out

    def test_machine_output_is_reproducible(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", SNAPSHOT_HET)
        assert main(["alloc", path, "--budget", "0.5", "--machine"]) == 0
        first = capsys.readouterr().out
        assert main(["alloc", path, "--budget", "0.5", "--machine"]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("k=3\n")
        assert "sensor_1:" in first

    def test_budget_with_caps(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", SNAPSHOT_HET)
        assert main(["alloc", path, "--budget", "0.9", "--caps", "0.3"]) == 0
        out = capsys.readouterr().out
        powers = [
            float(line.split("transmit_w=")[0].split()[-2])
            for line in out.splitlines()
            if line.strip().startswith(("1", "2", "3"))
        ]
        assert all(p <= 0.3 * (1 + 1e-9) for p in powers)

    def test_per_sensor_caps_with_an_unbounded_one(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", SNAPSHOT_HET)
        assert main(["alloc", path, "--budget", "0.9", "--caps", "0.3,inf,0.2", "--machine"]) == 0
        out = capsys.readouterr().out.splitlines()
        powers = [float(line.split("transmit_w=")[1].split()[0]) for line in out[-3:]]
        assert powers == pytest.approx([0.3, 0.6, 0.0], rel=1e-9, abs=1e-15)
        assert "total_power_w=0.9" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--budget", "0.9", "--caps", "0.3,0.2"], "--caps needs 1 or 3 values, got 2"),
            (["--target", "0.05", "--caps", "0.3"], "--caps applies to --budget solves only"),
            (["--budget", "0.9", "--caps=0"], "every cap must be > 0 (inf for unbounded)"),
        ],
    )
    def test_bad_caps_exit_2(self, tmp_path, capsys, argv, message):
        path = write(tmp_path, "s.txt", SNAPSHOT_HET)
        assert main(["alloc", path, *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_infeasible_target_exits_3_and_prints_floor(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", SNAPSHOT_ONE)
        assert main(["alloc", path, "--target", "0.001"]) == 3
        err = capsys.readouterr().err
        assert "feasibility_floor=0.01" in err

    def test_budget_below_the_old_resolution_exits_0_and_is_spent(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", "sigma_theta_sq = 1\n10 1\n5 0.5\n")
        assert main(["alloc", path, "--budget", "1e-20"]) == 0
        assert "total_power_w=1e-20  mse=1.1e+20  active_count=1" in capsys.readouterr().out

    def test_budget_that_rounds_away_against_w_exits_0_and_is_spent(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", "sigma_theta_sq = 1\n1 1\n")
        assert main(["alloc", path, "--budget", "1e-30"]) == 0
        assert "total_power_w=1e-30  mse=2e+30  active_count=1" in capsys.readouterr().out

    def test_budget_on_dead_channels_exits_3_like_a_target(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", "sigma_theta_sq = 1\n10 0\n5 0\n")
        assert main(["alloc", path, "--budget", "1"]) == 3
        assert capsys.readouterr().err == "infeasible: all channel merits are zero\n"
        assert main(["alloc", path, "--target", "1"]) == 3
        assert "feasibility_floor=inf" in capsys.readouterr().err

    @pytest.mark.parametrize("l2", [[], ["--l2"]], ids=["min-sum", "l2"])
    def test_target_on_merits_that_all_underflow_exits_3(self, tmp_path, capsys, l2):
        # eta underflows to 0 on the live channel, but its s > 0 puts the floor at 1e299.
        path = write(tmp_path, "s.txt", "sigma_theta_sq = 1\n1e-299 3e-75\n2 0\n")
        assert main(["alloc", path, "--target", "1e301", *l2]) == 3
        assert capsys.readouterr().err == "infeasible: all channel merits are zero\n"

    def test_min_power_with_a_subnormal_requirement(self, tmp_path, capsys):
        # sigma^2/target = 1e-310: the old cut divided L by required * u, which overflowed.
        path = write(tmp_path, "s.txt", "sigma_theta_sq = 1e-300\n88.5 1.0\n24298.6 1000.0\n")
        assert main(["alloc", path, "--target=1e10", "--machine"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "active=0" in out[-2] and "active=1" in out[-1]
        mse = float(next(line for line in out if line.startswith("mse=")).split("=")[1])
        # The solve runs on subnormals (required 1e-310, alpha' 1e-313), whose relative
        # precision falls with their size: mse reads 1.0000000069e10.
        assert mse == pytest.approx(1e10, rel=1e-8)

    def test_l2_variant(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", SNAPSHOT_HET)
        assert main(["alloc", path, "--target", "0.05", "--l2"]) == 0
        out = capsys.readouterr().out
        assert "mse=0.05" in out


class TestRateAndDinf:
    def test_rate_closed_and_numeric_agree(self, capsys):
        assert main(["rate", "--a", "1.0", "--mean-b", "2.0", "--k", "10"]) == 0
        out = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(out["rate_closed"]) == pytest.approx(float(out["rate_numeric"]), abs=1e-10)
        assert float(out["theta_star"]) == pytest.approx(-0.5, abs=1e-9)
        expected = math.exp(-10 * ff.rate_function_exponential(1.0, 2.0))
        assert float(out["chernoff_bound_k10"]) == pytest.approx(expected, rel=1e-9)

    def test_rate_from_samples_file(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        samples = tmp_path / "x.txt"
        np.savetxt(samples, rng.exponential(2.0, 100_000))
        assert main(["rate", "--a", "1.0", "--samples", str(samples)]) == 0
        out = capsys.readouterr().out
        value = float(out.split("rate_numeric=")[1].splitlines()[0])
        assert value == pytest.approx(ff.rate_function_exponential(1.0, 2.0), rel=0.05)

    def test_rate_requires_exactly_one_source(self, tmp_path):
        assert main(["rate", "--a", "1.0"]) == 2
        samples = write(tmp_path, "x.txt", "1.0\n2.0\n3.0\n")
        assert main(["rate", "--a", "1.0", "--mean-b", "2.0", "--samples", samples]) == 2

    def test_rate_outside_the_sample_range_exits_2(self, tmp_path, capsys):
        samples = write(tmp_path, "x.txt", "0.5\n1.0\n3.1\n")
        assert main(["rate", "--a", "0.3", "--samples", samples]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: supremum attained")

    @pytest.mark.parametrize("a, mean_b, value", [("1e-200", "1", "459.517018599"),
                                                  ("1e-300", "1e7", "705.893623549")])
    def test_rate_far_below_the_mean(self, capsys, a, mean_b, value):
        assert main(["rate", "--a", a, "--mean-b", mean_b]) == 0
        out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert out["rate_closed"] == out["rate_numeric"] == value

    def test_rate_of_samples_whose_distance_to_a_overflows(self, tmp_path, capsys):
        samples = write(tmp_path, "x.txt", "-1.7e308\n1.7e308\n")
        assert main(["rate", "--a", "1e308", "--samples", samples]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "rate_numeric=0.184697433164"

    @pytest.mark.parametrize("a, mean_b", [("1e20", "1"), ("3.16e117", "6.29e-141")])
    def test_rate_past_the_last_halving_step_exits_2(self, capsys, a, mean_b):
        # a/b > 2^53: the maximizer lies within one ulp of 1/b, where 1 - b theta rounded to 0.
        assert main(["rate", "--a", a, "--mean-b", mean_b]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: supremum attained")

    @pytest.mark.parametrize("text", ["nan\n1\n2\n", "inf\n1\n"], ids=["nan", "inf"])
    def test_rate_from_non_finite_samples_exits_2(self, tmp_path, capsys, text):
        samples = write(tmp_path, "x.txt", text)
        assert main(["rate", "--a", "1", "--samples", samples]) == 2
        assert capsys.readouterr().err == "error: need at least two samples, all finite\n"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_dinf_needs_at_least_one_sensor(self, capsys, k):
        assert main(["dinf", "--p-tot", "1", "--k", k]) == 2
        assert capsys.readouterr().err == "error: k must be >= 1\n"

    def test_dinf_default_model(self, capsys):
        assert main(["dinf", "--p-tot", "10 dBm"]) == 0
        value = float(capsys.readouterr().out.split("=")[1])
        assert value == pytest.approx(1.0 / (0.01 * 1e5 / 1.01), rel=1e-12)
        assert main(["dinf", "--p-tot", "inf"]) == 2
        assert "p_tot must be strictly positive and finite" in capsys.readouterr().err

    def test_dinf_with_overrides_matches_known_value(self, capsys):
        # gamma = 1 and mean channel SNR 2 make the expected merit exactly 1
        assert (
            main(
                [
                    "dinf",
                    "--p-tot",
                    "10",
                    "--set",
                    "model.sigma_k_sq=1.0",
                    "--set",
                    "model.nominal_gain=2.0",
                    "--set",
                    "model.distance_m=1",
                    "--set",
                    "model.channel_noise=1.0",
                ]
            )
            == 0
        )
        assert float(capsys.readouterr().out.split("=")[1]) == pytest.approx(0.1, rel=1e-12)

    def test_dinf_where_budget_times_merit_underflows(self, capsys):
        model = ["--set", "model.sigma_theta_sq=1.4573698271490243e-121",
                 "--set", "model.nominal_gain=5.5205975777660905e+280",
                 "--set", "model.channel_noise=2.091927076106252e+225"]
        assert main(["dinf", "--p-tot=1.8666793531907266e-265", *model]) == 0
        assert capsys.readouterr().out == "d_infinity=2.02997517407e+211\n"

    def test_dinf_where_the_merit_underflows_exits_2(self, capsys):
        model = ["--set", "model.sigma_theta_sq=4.9100365246842e-176",
                 "--set", "model.nominal_gain=13645674.677143756",
                 "--set", "model.channel_noise=3.1089624757304626e+260"]
        assert main(["dinf", "--p-tot=1.2781879842574646e-113", *model]) == 2
        assert capsys.readouterr().err == "error: the expected merit underflows to 0\n"


def _documented_exit_codes() -> dict[str, int]:
    """{error class name: exit code} from README's list under "Exit codes"."""
    section = (ROOT / "README.md").read_text().split("\nExit codes", 1)[1]
    bullets = section.split("\n\n")[1].split("\n- `")[1:]
    codes: dict[str, int] = {}
    for bullet in bullets:
        for name in re.findall(r"`([A-Z][A-Za-z]+)`", bullet):
            assert name not in codes, f"README lists {name} under two exit codes"
            codes[name] = int(bullet[0])
    return codes


class TestExitCodes:
    def test_every_library_error_exits_with_its_documented_code(self, monkeypatch, capsys):
        documented = _documented_exit_codes()
        classes = [value for value in vars(errors).values()
                   if isinstance(value, type) and issubclass(value, Exception)]
        assert errors.FadeFusionError in classes
        for cls in classes + [ConfigError, ValueError]:
            exc = cls(0.5, 0.25) if cls is errors.InfeasibleTarget else cls("boom")

            def fail(args, exc=exc):
                raise exc

            monkeypatch.setattr(cli, "_cmd_dinf", fail)
            assert main(["dinf", "--p-tot", "1"]) == documented[cls.__name__], cls.__name__
            assert capsys.readouterr().err.splitlines()[0].endswith(f": {exc}")


# ---------------------------------------------------------------------------
# Boundary fuzzer: main() in this process, so the suite's error::RuntimeWarning
# filter and the derandomized Hypothesis profile apply
# ---------------------------------------------------------------------------

# Model values stay within 10^+-3 of their defaults.  Extreme magnitudes (1e-320..1e308,
# obs_log_sigma up to 300) still overflow inside the batch kernels on gammas and channel
# SNRs the sampler can draw; CHANGES.md lists each such site as a FOUND line.
_BAD_TOKENS = ("0", "-1", "inf", "nan", "1e-320")
_MODEL = {"sigma_theta_sq": 1.0, "sigma_k_sq": 0.01, "obs_low": 0.005, "obs_high": 0.02,
          "obs_median": 0.01, "nominal_gain": 1e-3, "channel_noise": 1e-12,
          "distance_m": 100.0, "path_loss_exponent": 2.0, "fading_mean_square": 1.0}
_PREFIXES = ("error: ", "infeasible: ", "internal consistency failure: ", "convergence failure: ")


@st.composite
def _value(draw, default, span=3.0):
    """A bad token one time in ten, else ``default`` times 10^U(-span, span)."""
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from(_BAD_TOKENS))
    return repr(default * 10.0 ** draw(st.floats(-span, span)))


@st.composite
def _model_settings(draw):
    argv = []
    for key, default in _MODEL.items():
        argv += ["--set", f"model.{key}={draw(_value(default))}"]
    observation = draw(st.sampled_from(["fixed", "uniform", "lognormal"]))
    fading = draw(st.sampled_from(["rayleigh", "none"]))
    return argv + ["--set", f"model.obs_log_sigma={draw(st.floats(0.0, 3.0))!r}",
                   "--set", f"model.observation={observation}", "--set", f"model.fading={fading}"]


@st.composite
def _run_cases(draw):
    scenario = draw(st.sampled_from(SCENARIOS))
    multi_k = scenario in ("outage", "distortion")
    ks = draw(st.lists(st.integers(1, 100), min_size=1, max_size=2 if multi_k else 1, unique=True))
    policies = draw(st.lists(st.sampled_from(["equal", "optimal", "capped"]), min_size=1,
                             max_size=3, unique=True))
    if scenario == "min-power":
        axis, ends = "d0", [repr(0.02 * 10.0 ** draw(st.floats(-2.0, 1.0))) for _ in "ab"]
    else:
        axis, ends = "p_tot", [f"{draw(st.floats(-30.0, 30.0))!r} dBm" for _ in "ab"]
    text = (
        f"[experiment]\nscenario = {scenario}\nk = {','.join(map(str, ks))}\n"
        f"policy = {policies[0]}\npolicies = {','.join(policies)}\n"
        f"d0 = {0.02 * 10.0 ** draw(st.floats(-2.0, 1.0))!r}\n"
        f"trials = {draw(st.integers(1, 300))}\nseed = {draw(st.integers(0, 2**64 - 1))}\n"
        f"[sweep]\naxis = {axis}\nstart = {ends[0]}\nstop = {ends[1]}\n"
        f"points = {draw(st.integers(1, 4))}\n"
        f"spacing = {draw(st.sampled_from(['log', 'linear']))}\n"
    )
    argv = ["run", "--config", "{dir}/e.ini", "--output", "{dir}/workers1.csv"]
    return argv + draw(_model_settings()), {"e.ini": text}


@st.composite
def _alloc_cases(draw):
    lines = [f"sigma_theta_sq = {draw(_value(1.0))}"]
    for _ in range(draw(st.integers(1, 6))):
        s = draw(st.sampled_from(["0", draw(_value(1.0))]))
        lines.append(f"{draw(_value(100.0))} {s}")
    argv = ["alloc", "{dir}/s.txt"]
    if draw(st.booleans()):
        argv.append(f"--budget={draw(_value(0.1))}")
        if draw(st.booleans()):
            argv.append(f"--caps={draw(_value(0.05))}")
    else:
        argv.append(f"--target={draw(_value(0.02))}")
        if draw(st.booleans()):
            argv.append("--l2")
    return argv + (["--machine"] if draw(st.booleans()) else []), {"s.txt": "\n".join(lines)}


@st.composite
def _rate_cases(draw):
    """``--a`` and ``--mean-b`` over 10^U(-300, 300), or samples c (1 + d U) with c over
    10^U(-300, 300) and d over 10^U(-20, 0), and then, one time in two, ``--a`` drawn alike."""
    a, files = draw(_value(1.0, 300.0)), {}
    if draw(st.booleans()):
        argv = ["rate", f"--mean-b={draw(_value(2.0, 300.0))}"]
    else:
        c, d = 10.0 ** draw(st.floats(-300.0, 300.0)), 10.0 ** draw(st.floats(-20.0, 0.0))
        spread = st.floats(0.0, 1.0).map(lambda u: c * (1.0 + d * u))
        samples = draw(st.lists(spread, min_size=1, max_size=6))
        a = repr(draw(spread)) if draw(st.booleans()) else a
        argv = ["rate", "--samples={dir}/x.txt"]
        files["x.txt"] = "\n".join(map(repr, samples))
    argv.append(f"--a={a}")
    if draw(st.booleans()):
        argv.append(f"--k={draw(st.integers(-2, 50))}")
    return argv, files


@st.composite
def _dinf_cases(draw):
    argv = ["dinf", f"--p-tot={draw(_value(0.01))}", f"--k={draw(st.integers(-1, 20))}"]
    return argv + draw(_model_settings()), {}


def _call(argv):
    """``main(argv)`` with stdout and stderr captured: (exit code, stderr lines)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("cases, examples", [(_run_cases, 40), (_alloc_cases, 40),
                                             (_rate_cases, 20), (_dinf_cases, 20)])
def test_the_cli_boundary_exits_with_a_code_from_its_table(cases, examples):
    settings(max_examples=examples)(given(case=cases())(_check_cli_case))()


def _check_cli_case(case):
    """Exit 0 with sane, worker-independent output, or 2-4 with one prefixed stderr line."""
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        argv = [arg.format(dir=tmp) for arg in argv]
        code, err = _call(argv + (["--workers", "1"] if argv[0] == "run" else []))
        assert code in (0, 2, 3, 4)
        if code != 0:
            assert [line.startswith(_PREFIXES) for line in err].count(True) == 1, err
            assert all(line.startswith((*_PREFIXES, "feasibility_floor=")) for line in err), err
            return
        assert err == []
        if argv[0] != "run":
            return
        one = Path(tmp, "workers1.csv")
        assert _call([*argv, "--workers", "2", "--output", f"{tmp}/workers2.csv"]) == (0, [])
        assert Path(tmp, "workers2.csv").read_bytes() == one.read_bytes()
        lines = one.read_text().splitlines()
        rows = np.array([line.split(",") for line in lines[6:]], dtype=float)
        for name, column in zip(lines[5].split(","), rows.T):
            if name.startswith(("outage", "active_fraction")):
                assert np.all((column >= 0) & (column <= 1)), name
            if name.startswith("half_width"):
                assert np.all(np.isfinite(column)), name
