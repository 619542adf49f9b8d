import math

import numpy as np
import pytest

import fadefusion as ff
from fadefusion.cli import main, read_snapshot_file
from fadefusion.config import SEED_ENV_VAR, ConfigError, load_config

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

    def test_env_seed_and_flag_priority(self, tmp_path, monkeypatch):
        no_seed = BASE_CONFIG.replace("seed = 11\n", "")
        cfg_path = write(tmp_path, "e.ini", no_seed.format(out=tmp_path / "o.csv"))
        monkeypatch.setenv(SEED_ENV_VAR, "777")
        assert load_config(cfg_path).seed == 777
        assert load_config(cfg_path, seed=5).seed == 5
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
        assert main(["run", "--config", cfg_path, "--set", "model.sigma_theta_sq=inf"]) == 2
        assert "invalid [model] section" in capsys.readouterr().err

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
        assert math.isinf(snap2.sensors[0].gamma)

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

    def test_infeasible_target_exits_3_and_prints_floor(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", SNAPSHOT_ONE)
        assert main(["alloc", path, "--target", "0.001"]) == 3
        err = capsys.readouterr().err
        assert "feasibility_floor=0.01" in err

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

    def test_rate_requires_exactly_one_source(self):
        assert main(["rate", "--a", "1.0"]) == 2

    def test_dinf_default_model(self, capsys):
        assert main(["dinf", "--p-tot", "10 dBm"]) == 0
        value = float(capsys.readouterr().out.split("=")[1])
        assert value == pytest.approx(1.0 / (0.01 * 1e5 / 1.01), rel=1e-12)

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
