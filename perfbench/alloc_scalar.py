"""Single-snapshot allocation solves through the public scalar API.

Usage: python3 perfbench/alloc_scalar.py OUT.json SEED SOLVES [--trace TRACE.json]

Builds the snapshot set from SEED (the set-up), then makes SOLVES solves in
a fixed order, each one solver call followed by ``blue_mse`` of its result,
the path ``fadefusion alloc`` takes.  Every solve is timed on its own.
After timing ends, every CHECK_EVERY-th solve is cross-checked against
``blue_mse_matrix_oracle`` and the solver's own contract.  With --trace the
solver and ``blue_mse`` names on the package are patched with spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time

from tracing import SOLVERS, Tracer

tracer = Tracer()
ROOT = tracer.begin("trace.run")

K_VALUES = (3, 20, 100)
SNAPSHOTS_PER_K = 100
CAP_SCALE = 1.5
CHECK_EVERY = 37
REL_TOL = 1e-9


def build_inputs(ff, np, seed: int, solves: int):
    """Snapshots and per-solve (snapshot, solver, parameter) specs, all from ``seed``."""
    model = ff.default_network()
    snapshots = [
        ff.sample_snapshot(model, k, ff.RngStream(seed, trial))
        for trial in range(SNAPSHOTS_PER_K)
        for k in K_VALUES
    ]
    rng = np.random.default_rng(seed)
    # Budgets log-uniform over 0..14 dBm; targets 1.01x..6x above each floor.
    budgets = 10 ** rng.uniform(-3.0, math.log10(0.025), solves)
    target_factors = 10 ** rng.uniform(math.log10(1.01), math.log10(6.0), solves)
    specs = []
    for i in range(solves):
        snapshot = snapshots[i % len(snapshots)]
        solver = SOLVERS[(i // len(snapshots) + i) % len(SOLVERS)]
        if solver == "min_power_allocation":
            parameter = float(ff.distortion_floor(snapshot) * target_factors[i])
        else:
            parameter = float(budgets[i])
        specs.append((snapshot, solver, parameter))
    return specs


def solve(ff, snapshot, solver: str, parameter: float):
    if solver == "max_performance_allocation":
        allocation, _ = ff.max_performance_allocation(snapshot, parameter)
    elif solver == "max_performance_with_caps":
        caps = ff.CapVector.uniform(snapshot.k, CAP_SCALE * parameter / snapshot.k)
        allocation, _ = ff.max_performance_with_caps(snapshot, parameter, caps)
    else:
        allocation, _ = ff.min_power_allocation(snapshot, parameter)
    return allocation, ff.blue_mse(snapshot, allocation)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check(ff, snapshot, solver: str, parameter: float, allocation, mse: float) -> list[str]:
    """Problems with one solve: oracle mismatch or a broken solver contract."""
    problems = []
    oracle = ff.blue_mse_matrix_oracle(snapshot, allocation)
    if not _close(mse, oracle):
        problems.append(f"{solver}: blue_mse {mse!r} vs matrix oracle {oracle!r}")
    powers = allocation.transmit_powers(snapshot)
    total = float(powers.sum())
    if (powers < 0).any():
        problems.append(f"{solver}: negative transmit power")
    if solver == "max_performance_allocation" and not _close(total, parameter):
        problems.append(f"{solver}: total power {total!r} misses the budget {parameter!r}")
    if solver == "max_performance_with_caps":
        cap = CAP_SCALE * parameter / snapshot.k
        if (powers > cap * (1 + REL_TOL)).any() or total > parameter * (1 + REL_TOL):
            problems.append(f"{solver}: a cap or the budget is exceeded")
    if solver == "min_power_allocation" and not _close(mse, parameter):
        problems.append(f"{solver}: distortion {mse!r} misses the target {parameter!r}")
    return problems


def main() -> int:
    out, seed, solves, *rest = sys.argv[1:]
    seed, solves = int(seed), int(solves)
    trace_out = rest[1] if rest[:1] == ["--trace"] else None
    span = tracer.begin("fadefusion.import")
    import numpy as np

    import fadefusion as ff

    tracer.end(span)
    specs = build_inputs(ff, np, seed, solves)
    if trace_out is not None:
        for name in SOLVERS:
            tracer.patch(ff, name, f"allocation.{name}")
        tracer.patch(ff, "blue_mse", "model.blue_mse")

    latencies_ns = []
    results = []
    errors = []
    clock = time.perf_counter_ns
    loop_started = clock()
    for snapshot, solver, parameter in specs:
        started = clock()
        try:
            allocation, mse = solve(ff, snapshot, solver, parameter)
        except (ff.FadeFusionError, ValueError) as exc:
            allocation, mse = None, math.nan
            errors.append(f"{solver}: {type(exc).__name__}: {exc}")
        latencies_ns.append(clock() - started)
        results.append((allocation, mse))
    loop_ns = clock() - loop_started
    tracer.unpatch()

    failed = len(errors)
    problems = list(errors)
    for i in range(0, len(specs), CHECK_EVERY):
        allocation, mse = results[i]
        if allocation is not None:
            found = check(ff, *specs[i], allocation, mse)
            failed += bool(found)
            problems += found
    digest = hashlib.sha256(repr([mse for _, mse in results]).encode()).hexdigest()
    tracer.end(ROOT)
    with open(out, "w") as handle:
        json.dump(
            {
                "solves": len(specs),
                "failed": failed,
                "problems": problems[:20],
                "digest": digest,
                "latencies_ns": latencies_ns,
                "loop_ns": loop_ns,
            },
            handle,
        )
    if trace_out is not None:
        tracer.dump(trace_out, exit_code=0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
