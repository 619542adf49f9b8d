#!/usr/bin/env python3
"""fadefusion benchmark: end-to-end and per-layer timings of two workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The program is run from ``src/`` of the checkout; nothing is installed.
With ``--trace 0`` each workload is run in a closed loop, one run after the
other, for ``--seconds`` seconds, and the end-to-end metrics are printed.
With ``--trace 1`` the loop runs untraced at one worker, as the reference
for the tracing overhead, and then one traced run gives the per-layer
metrics.  Every output is checked; the last line of stdout is the JSON
result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import Callable, Optional

from checks import check_outage
from tracing import KERNELS, SOLVERS, LayerTimes, load_trace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Every invocation must end well inside 180 s.
BUDGET_S = 165.0


@dataclass
class Proc:
    """One finished process: exit code, wall time, CPU time of it and its
    children, the largest resident set among them and, when the process
    reports them, its per-solve latencies, the wall time of its work past
    start-up and its spans."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str
    solve_us: list = field(default_factory=list)
    loop_s: Optional[float] = None
    trace: Optional[dict] = None


@dataclass
class Runs:
    """The runs of one command and size in an invocation, with their outputs
    (CSV bytes or result digests), which must all be identical."""

    procs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


class Session:
    """Scratch directory, deadline and failure bookkeeping of one invocation."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))

    def path(self, name: str) -> str:
        return str(self.work / name)

    def spawn(self, argv: list) -> Proc:
        """Run argv to exit; wall, CPU and peak RSS cover it and its children.

        The process leads its own process group, so that a deadline or an
        interrupt kills its workers with it.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark time budget exhausted")
        with open(self.path("stdout"), "w") as out, open(self.path("stderr"), "w+") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                start_new_session=True,
            )

            def kill_group():
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            killer = threading.Timer(remaining, kill_group)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill_group()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()[-2000:]
        return Proc(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stderr=stderr,
        )

    def record(self, label: str, attempted: int, failed: int, problems: list) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{label}: {p}" for p in problems[:5]]

    def compare(self, runs: Runs, proc: Proc, output, problems: list) -> None:
        """Keep a run and its output; flag an output unlike the first one."""
        if runs.outputs and output != runs.outputs[0]:
            problems.append("output differs from the first run with the same seed and size")
        runs.outputs.append(output)
        runs.procs.append(proc)


def _exit_problem(proc: Proc) -> list:
    return [f"exit code {proc.code}: {proc.stderr.strip()[-300:]}"]


@dataclass(frozen=True)
class RunWorkload:
    """A ``fadefusion run`` sweep, one subprocess per run; size is the trial count."""

    name: str
    size: int
    quick_size: int
    workers: int
    points: int
    curves: int  # policies or K values: estimator calls per sweep point
    check: Callable[[str, int, int, int], list]

    def units(self, size: int) -> int:
        """Snapshots solved by one run."""
        return size * self.points * self.curves

    def run(self, session: Session, seed: int, size: int, runs: Runs, label: str,
            workers: int = 1, trace: str = "plain", extra=()) -> Proc:
        """One run through ``cli_run.py``; ``trace`` is its span mode."""
        csv_path = session.path(f"{self.name}.csv")
        spans_path = session.path("spans.json")
        for path in (csv_path, spans_path):
            if os.path.exists(path):
                os.remove(path)
        config = BENCH / "workloads" / f"{self.name}.ini"
        argv = [sys.executable, str(BENCH / "cli_run.py"), spans_path, trace, "--",
                "run", "--config", str(config), "--seed", str(seed), "--trials", str(size),
                "--output", csv_path, "--workers", str(workers), *extra]
        proc = session.spawn(argv)
        if proc.code != 0:
            session.record(label, 1, 1, _exit_problem(proc))
            return proc
        proc.trace = load_trace(spans_path)
        proc.loop_s = LayerTimes(proc.trace["spans"]).total_s["cli.main"]
        with open(csv_path, "rb") as handle:
            data = handle.read()
        problems = self.check(data.decode(), size, seed, self.points)
        session.compare(runs, proc, data, problems)
        session.record(label, 1, int(bool(problems)), problems)
        return proc


@dataclass(frozen=True)
class ScalarWorkload:
    """Single-snapshot solves through the public API; size is the solve count."""

    name: str
    size: int
    quick_size: int
    workers: int = 1

    def units(self, size: int) -> int:
        return size

    def run(self, session: Session, seed: int, size: int, runs: Runs, label: str,
            workers: int = 1, trace: str = "plain") -> Proc:
        """One process making ``size`` solves; each solve counts as one attempt."""
        out, spans_path = session.path("alloc.json"), session.path("spans.json")
        for path in (out, spans_path):
            if os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, str(BENCH / "alloc_scalar.py"), out, str(seed), str(size)]
        if trace != "plain":
            argv += ["--trace", spans_path]
        proc = session.spawn(argv)
        if proc.code != 0:
            session.record(label, size, size, _exit_problem(proc))
            return proc
        with open(out) as handle:
            result = json.load(handle)
        proc.solve_us = [ns / 1e3 for ns in result["latencies_ns"]]
        proc.loop_s = result["loop_ns"] / 1e9
        if trace != "plain":
            proc.trace = load_trace(spans_path)
        problems = list(result["problems"])
        session.compare(runs, proc, result["digest"], problems)
        failed = result["failed"] + (len(problems) > len(result["problems"]))
        session.record(label, size, failed, problems)
        return proc


WORKLOADS = {
    w.name: w
    for w in (
        RunWorkload(
            "sweep-k3", 1 << 18, 256, workers=2, points=8, curves=2,
            check=lambda text, trials, seed, points: check_outage(
                text, trials, seed, points, ("equal", "optimal"), dominated=("optimal", "equal")
            ),
        ),
        ScalarWorkload("alloc-scalar", 6000, 60),
    )
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(units: int, timed: list, setups: list) -> dict:
    """End-to-end metrics of the timed runs and the set-up runs between them.

    The time a run spends on its snapshots is its work past start-up: the
    ``main`` call of a ``fadefusion run``, the solve loop of ``alloc-scalar``.
    A run without per-solve latencies solved its snapshots as one batch, so
    every snapshot has the same amortized latency: that time over the
    snapshots.
    """
    busy = [run.loop_s for run in timed]

    def solve_us(q):
        return median([
            percentile(run.solve_us, q) if run.solve_us else b / units * 1e6
            for run, b in zip(timed, busy)
        ])

    return {
        "run_s": (median([p.wall_s for p in timed]), "s"),
        "setup_s": (median([p.wall_s for p in setups]), "s"),
        "snapshots_per_s": (units / max(median(busy), 1e-9), "1/s"),
        "cpu_s": (median([p.cpu_s for p in timed]), "s"),
        "peak_rss_mb": (median([p.rss_mb for p in timed]), "MB"),
        "solve_us.p50": (solve_us(50), "us"),
        "solve_us.p99": (solve_us(99), "us"),
    }


def measure_workload(session: Session, w, seed: int, seconds: float, trace: bool,
                     quick: bool) -> dict:
    """Closed loop for about ``seconds``: each run starts after the previous one exits.

    Untraced, a set-up run (the same command at size 1) follows every other
    timed run.  Traced, the loop gives the untraced reference wall time at
    one worker, then one traced run at one worker gives the layer spans, and
    a workload with more workers adds an estimator-only pass at its own count.
    """
    size = w.quick_size if quick else w.size
    workers = 1 if trace else w.workers
    timed, setups = Runs(), Runs()
    window_end = time.monotonic() + seconds
    iterations = []
    while True:
        started = time.monotonic()
        w.run(session, seed, size, timed, "timed run", workers)
        if not trace and len(timed.procs) % 2 == 1:
            w.run(session, seed, 1, setups, "set-up run", workers)
        iterations.append(time.monotonic() - started)
        # Start another iteration only if at least half of a typical one fits.
        if time.monotonic() + median(iterations) / 2 >= window_end:
            break
    if not timed.procs or (not trace and not setups.procs):
        return {}
    if not trace:
        return end_to_end(w.units(size), timed.procs, setups.procs)

    reference_s = median([p.wall_s for p in timed.procs])
    proc = w.run(session, seed, size, timed, "traced run", 1, trace="full")
    if proc.trace is None:
        return {}
    own_workers = None
    if w.workers > 1:
        own_workers = w.run(session, seed, size, timed, f"traced run at {w.workers} workers",
                            w.workers, trace="estimators").trace
    layers = LayerTimes(proc.trace["spans"])
    session.record("trace", 0, int(bool(layers.problems)), layers.problems)
    return per_layer(layers, proc.trace["counters"], own_workers, proc.wall_s - reference_s)


def per_layer(layers: LayerTimes, counters: dict, own_workers: Optional[dict],
              overhead_s: float) -> dict:
    """Per-layer metrics; a layer that did not run on the workload reads 0."""
    estimator_s = layers.total_s["analysis.estimator"]
    pools = counters.get("analysis.pools_started", 0)
    efficiency = 0.0
    if own_workers is not None:
        parallel = LayerTimes(own_workers["spans"])
        pools = own_workers["counters"].get("analysis.pools_started", 0)
        parallel_s = parallel.total_s["analysis.estimator"]
        efficiency = estimator_s / (2.0 * parallel_s) if parallel_s > 0 else 0.0
    distinct = counters.get("channel.distinct_pairs", 0)
    metrics = {
        "fadefusion.import_s": (layers.self_s["fadefusion.import"], "s"),
        "cli.self_s": (layers.self_s["cli.main"], "s"),
        "config.load_config.s": (layers.self_s["config.load_config"], "s"),
        "analysis.estimator.calls": (layers.calls["analysis.estimator"], "count"),
        "analysis.estimator.s": (estimator_s, "s"),
        "analysis.self_s": (layers.self_s["analysis.estimator"], "s"),
        "analysis.pools_started": (pools, "count"),
        "analysis.parallel_efficiency": (efficiency, "ratio"),
        "channel.sample_batch.calls": (layers.calls["channel.sample_batch"], "count"),
        "channel.sample_batch.s": (layers.self_s["channel.sample_batch"], "s"),
        "channel.resample_factor": (
            counters.get("channel.rows", 0) / distinct if distinct else 0.0, "ratio"),
        "allocation.row_sensors": (counters.get("allocation.row_sensors", 0), "count"),
    }
    for name in KERNELS:
        metrics[f"allocation.{name}.s"] = (layers.self_s[f"allocation.{name}"], "s")
    for name in SOLVERS:
        metrics[f"allocation.{name}.us"] = (layers.median_us(f"allocation.{name}"), "us")
    metrics["model.blue_mse.us"] = (layers.median_us("model.blue_mse"), "us")
    metrics["trace.wall_s"] = (layers.wall_s, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _git_commit() -> Optional[str]:
    """Commit of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(load_before) -> dict:
    version = re.search(r'__version__ = "([^"]+)"', (SRC / "fadefusion" / "__init__.py").read_text())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "fadefusion": version.group(1) if version else None,
        "git_commit": _git_commit(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Run one workload and return the result object (plus the environment)."""
    load_before = os.getloadavg()
    w = WORKLOADS[name]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))
    try:
        session = Session(work)
        metrics = measure_workload(session, w, seed, seconds, trace, quick)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "problems": session.problems,
        "environment": environment(load_before),
    }


def print_result(result: dict) -> None:
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"{key:40s} {metric['value']:>16.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':40s} {rate:>16.6g} ratio ({result['failed']}/{result['attempted']})")
    print(json.dumps({"environment": result["environment"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def _edit_cells(text: str, edit) -> str:
    """Apply ``edit(rows)`` to the data cells of a CSV (rows as lists of strings)."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    rows = [line.split(",") for line in lines[first:]]
    edit(rows)
    return "\n".join(lines[:first] + [",".join(row) for row in rows]) + "\n"


def _swap(rows, a, b):
    """Swap cells: ``a`` and ``b`` are (row, column) pairs."""
    rows[a[0]][a[1]], rows[b[0]][b[1]] = rows[b[0]][b[1]], rows[a[0]][a[1]]


def _corruptions():
    """(label, edit) of hand-corrupted ``sweep-k3`` CSVs that the checks must reject."""

    def outage_rises(rows):  # equal-policy outage and half-width of points 1 and 2 swapped
        _swap(rows, (0, 2), (1, 2))
        _swap(rows, (0, 3), (1, 3))

    def optimal_above_equal(rows):  # the two policies' columns swapped at point 1
        _swap(rows, (0, 2), (0, 4))
        _swap(rows, (0, 3), (0, 5))

    def wrong_half_width(rows):
        rows[0][3] = repr(float(rows[0][3]) * 1.001)

    return [
        ("an outage that grows with the budget", outage_rises),
        ("an optimal outage above the equal one", optimal_above_equal),
        ("a half-width off its formula", wrong_half_width),
    ]


def self_test() -> int:
    """Every workload at tiny size in both modes, plus checks that must reject."""
    failures = []

    def report(ok: bool, label: str, detail="") -> None:
        print(f"{'PASS' if ok else 'FAIL'} {label}", flush=True)
        if not ok:
            failures.append(f"{label}: {detail}")

    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, seed=11, seconds=0, trace=trace, quick=True)
            report(result["correct"], f"{name} at tiny size, trace={int(trace)}", result["problems"])

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="self-test-", dir=ROOT / ".bench_work"))
    try:
        session, w, runs, trials = Session(work), WORKLOADS["sweep-k3"], Runs(), 4096
        w.run(session, 5, trials, runs, "reference run")
        text = runs.outputs[0].decode() if runs.outputs else ""
        report(not session.problems, "the checks accept the program's own CSV", session.problems)
        for label, edit in _corruptions():
            report(bool(w.check(_edit_cells(text, edit), trials, 5, w.points)),
                   f"the checks reject {label}")
        session = Session(work)
        w.run(session, 5, 8, Runs(), "bad run", extra=["--set", "experiment.k=0"])
        report(session.failed == 1 and session.attempted == 1,
               "a non-zero exit counts as a failed run", session.problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"self-test failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that runs in flight are killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fadefusion" / "cli.py").is_file():
        print(f"error: no fadefusion sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not 0 <= args.seed < 2**64 or not 0 <= args.seconds <= 60:
        parser.error("--seed must be a 64-bit unsigned integer and --seconds in [0, 60]")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
