"""Byte-exact guard on the CSV of every scenario.

``tests/golden/<scenario>.csv`` was written by ``fadefusion run --config
tests/golden/<scenario>.ini`` before the sweep driver existed (one estimator
call, one sampling pass and one process pool per point and policy).  Any
speed-up must reproduce these bytes at any worker count.

``distortion.csv`` was written again when the sum-power closed form became a
ratio of sums of non-negative steps: its three K=1 ``avg_mse`` cells moved
by about 4e-9 relative (3.22906598832 -> 3.229065976, 0.331906597763 ->
0.3319065976, 0.0421906597615 -> 0.04219065976), because the old form
``sum(gamma) - a/c`` lost about log10((1 + gamma)/(P*s)) digits.  Every
other cell kept its bytes.

``min-power-k3.csv`` was written later, by the same command, to pin the
column-major path of the min-power kernel: below 8 sensors a chunk is
column-major.
"""

import csv
import warnings
from pathlib import Path

import pytest

import fadefusion.analysis as analysis
from fadefusion.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "scenario, workers",
    [
        ("outage", 1),
        ("outage", 2),
        ("distortion", 1),
        ("distortion", 2),
        ("outage-compare", 1),
        ("outage-compare", 2),
        ("active-fraction", 1),
        ("min-power", 1),
        ("min-power-k3", 1),
    ],
)
def test_csv_is_byte_identical_to_golden(tmp_path, scenario, workers):
    out = tmp_path / f"{scenario}.csv"
    argv = ["run", "--config", str(GOLDEN / f"{scenario}.ini"), "--output", str(out)]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*distortion floor")
        assert main(argv + ["--workers", str(workers)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{scenario}.csv").read_bytes()


@pytest.mark.parametrize("scenario", ["outage", "outage-compare"])
def test_outage_csv_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch, scenario):
    # Outage counts are integers, so chunks of 700 trials must add up to the same bytes.
    monkeypatch.setattr(analysis, "CHUNK_TRIALS", 700)
    test_csv_is_byte_identical_to_golden(tmp_path, scenario, 2)


def test_one_sensor_distortion_cells_are_exact():
    # At K=1 the optimal distortion of a row is sigma^2/gamma + sigma^2/(P eta), so
    # (avg_mse - sigma^2/gamma) * P is the same at every budget: 0.01 and the sample mean of
    # sigma^2/eta on the default network.  The old closed form spread it by 3.8e-9.
    rows = list(csv.DictReader(
        line for line in (GOLDEN / "distortion.csv").read_text().splitlines()
        if not line.startswith("#")
    ))
    scaled = [(float(row["avg_mse_k1"]) - 0.01) * float(row["p_tot_w"]) for row in rows]
    assert len(scaled) == 3
    assert max(scaled) == pytest.approx(min(scaled), rel=1e-12)
