"""Byte-exact guard on the CSV of every scenario.

``tests/golden/<scenario>.csv`` was written by ``fadefusion run --config
tests/golden/<scenario>.ini`` before the sweep driver existed (one estimator
call, one sampling pass and one process pool per point and policy).  Any
speed-up must reproduce these bytes at any worker count.
"""

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
