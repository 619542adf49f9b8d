"""Byte-exact guard on the row solvers, as ``test_golden.py`` guards the CSVs.

``ROW_DIGESTS[k]`` is the SHA-256 of the alpha' bytes and diagnostics that
``max_performance_allocation``, ``max_performance_with_caps`` and
``min_power_allocation`` return on seeded snapshots with K sensors, at
several budgets and targets for each snapshot.  The digests were written
while every row solve still ranked and scanned its snapshot afresh.  Each
snapshot is solved by all three solvers in turn, so a solve that reads what
an earlier solve of the same snapshot left behind must reproduce the bytes
of a fresh one.
"""

import hashlib
import math

import numpy as np
import pytest

import fadefusion as ff

ROW_DIGESTS = {
    3: "eceea6a481a0fba7bcb658cf9b16418ba0bd9eec55cf15fc8988c63217a48ba2",
    20: "0eec4149b9381610233cf3a3d621b19cb610a3c89f95281f0ba99678018860b5",
    100: "8c42f594580b21acd67e47da3f4a948adebc31566c0e52562311acb106d23c8d",
}

SNAPSHOTS_PER_FAMILY = 40
BUDGETS = (1e-3, 4e-3, 0.025, 1.0)
TARGET_FACTORS = (1.001, 1.0, 1.3, 6.0, 1e3)  # 1.0: at the floor, infeasible


def snapshots(k: int):
    """The default network's snapshots, then wide-range ones with about 1 in 5 channels dead."""
    model = ff.default_network()
    for trial in range(SNAPSHOTS_PER_FAMILY):
        yield ff.sample_snapshot(model, k, ff.RngStream(29, trial))
    rng = np.random.default_rng(k)
    for _ in range(SNAPSHOTS_PER_FAMILY):
        s = np.where(rng.random(k) < 0.2, 0.0, 10 ** rng.uniform(-3.0, 6.0, k))
        yield ff.Snapshot.from_arrays(1.0, 10 ** rng.uniform(-2.0, 8.0, k), s)


def record(digest, solve, *args) -> None:
    """One solve's alpha' bytes and diagnostics, or its error, into ``digest``."""
    try:
        allocation, diagnostics = solve(*args)
    except ff.FadeFusionError as exc:
        digest.update(f"{type(exc).__name__}: {exc}".encode())
        return
    digest.update(allocation.alpha_prime.tobytes())
    digest.update(
        f"{diagnostics.active_count} {diagnostics.threshold_constant.hex()} "
        f"{diagnostics.dual_value.hex()}".encode()
    )


def row_digest(k: int) -> str:
    digest = hashlib.sha256()
    rng = np.random.default_rng(100 + k)
    for snapshot in snapshots(k):
        floor = ff.distortion_floor(snapshot)
        for budget in BUDGETS:
            record(digest, ff.max_performance_allocation, snapshot, budget)
            for caps in (
                ff.CapVector.uniform(k, 1.5 * budget / k),
                ff.CapVector(budget * 10 ** rng.uniform(-1.5, 0.0, k)),
            ):
                record(digest, ff.max_performance_with_caps, snapshot, budget, caps)
        for factor in TARGET_FACTORS if math.isfinite(floor) else ():
            record(digest, ff.min_power_allocation, snapshot, floor * factor)
    return digest.hexdigest()


@pytest.mark.parametrize("k", sorted(ROW_DIGESTS))
def test_row_solver_bytes_are_pinned(k):
    assert row_digest(k) == ROW_DIGESTS[k]
