"""Command-line front end: sweep experiments to CSV, one-shot allocations,
rate-function evaluation and the distortion floor.

Subcommands:
  run    -- execute an experiment config and write a CSV artifact
  alloc  -- solve one snapshot file and print the allocation table
  rate   -- evaluate the large-deviation rate function (and Chernoff bound)
  dinf   -- distortion floor of the large-network limit

Exit codes, by the error that ends the command (``main``'s table ``_EXITS``):
  0  success
  2  ``error:`` ValueError (ConfigError too), DivergentMGF, InsufficientData,
     AllPowerZero and any other FadeFusionError
  3  ``infeasible:`` InfeasibleTarget (and a ``feasibility_floor=`` line),
     NoUsableSensor, a min-power sweep infeasible at every point
  4  ``internal consistency failure:`` InternalConsistencyError,
     ``convergence failure:`` ConvergenceFailure
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Optional, Sequence

# One OpenBLAS thread unless the caller chose a count: no BLAS call here is large enough to
# thread, and a process-pool parent that loads no BLAS pool forks its workers single-threaded.
# numpy and scipy read the variable when they first load, so it must be set before them.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .allocation import (
    CapVector,
    l2_min_power_allocation,
    max_performance_allocation,
    max_performance_with_caps,
    min_power_allocation,
)
from .analysis import (  # the four estimators stay importable from here
    CappedPolicy,
    Curve,
    EqualPolicy,
    OptimalPolicy,
    active_fraction,
    average_distortion,
    average_min_power,
    chernoff_bound,
    d_infinity,
    estimate_sweep,
    outage_probability,
    rate_function_exponential,
    rate_function_numeric,
    RateFunctionQuery,
)
from .config import ConfigError, ExperimentConfig, config_hash, load_config, load_model_only
from .errors import (ConvergenceFailure, FadeFusionError, InfeasibleTarget,
                     InternalConsistencyError, NoUsableSensor)
from .model import Snapshot, blue_mse
from .units import parse_power, watts_to_dbm


class _SweepInfeasible(FadeFusionError):
    """Every trial at every point of a min-power sweep was infeasible."""


#: (error classes, exit code, stderr prefix) rows; ``main`` takes the first row that matches.
_EXITS = (
    ((InfeasibleTarget, _SweepInfeasible, NoUsableSensor), 3, "infeasible"),
    (InternalConsistencyError, 4, "internal consistency failure"),
    (ConvergenceFailure, 4, "convergence failure"),
    ((FadeFusionError, ValueError), 2, "error"),  # ConfigError is a ValueError
)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.12g}"


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _policy_object(name: str, cap_scale: float):
    if name == "capped":
        return CappedPolicy(cap_scale)
    return {"equal": EqualPolicy(), "optimal": OptimalPolicy()}[name]


#: Per estimator kind: CSV column names of one curve, and its cells at one point.
_CELLS = {
    "outage": (("outage", "half_width"), lambda est: [est.probability, est.half_width_95]),
    "distortion": (("avg_mse", "excluded"), lambda avg: [avg.mean, avg.excluded]),
    "active": (("active_fraction",), lambda fraction: [fraction]),
    "min-power": (
        ("mean_power_optimal_w", "mean_power_equal_w", "equal_over_optimal_ratio",
         "infeasible_trials"),
        lambda mp: [mp.mean_optimal_w, mp.mean_equal_w, mp.mean_equal_w / mp.mean_optimal_w
                    if mp.infeasible < mp.trials else math.nan, mp.infeasible],
    ),
}
_KINDS = {"outage-compare": "outage", "active-fraction": "active"}


def _run_sweep(cfg: ExperimentConfig):
    """Every curve of the config from one estimator pass; returns (columns, rows).

    A curve is one K, or one policy for outage-compare; all curves see the
    same snapshots.
    """
    kind = _KINDS.get(cfg.scenario, cfg.scenario)
    points = tuple(cfg.sweep.values())
    if cfg.scenario == "outage-compare":  # (column suffix, K, policy) per curve
        specs = [(f"_{name}", cfg.k, name) for name in cfg.policies]
    else:
        suffixed = kind in ("outage", "distortion")
        specs = [(f"_k{k}" if suffixed else "", k, cfg.policy) for k in cfg.k_values]
    curves = [Curve(kind, k, points, _policy_object(name, cfg.cap_scale), cfg.d0)
              for _, k, name in specs]
    results = estimate_sweep(cfg.model, curves, cfg.trials, cfg.seed, workers=cfg.workers)
    if kind == "min-power" and all(mp.infeasible == mp.trials for mp in results[0]):
        raise _SweepInfeasible(
            "every trial at every sweep point was infeasible; raise d0 above the distortion floor"
        )
    names, cells = _CELLS[kind]
    columns = ["d0"] if kind == "min-power" else ["p_tot_w", "p_tot_dbm"]
    columns += [name + suffix for suffix, _, _ in specs for name in names]
    rows = []
    for i, x in enumerate(points):
        row = [x] if kind == "min-power" else [x, watts_to_dbm(x)]
        rows.append(row + [cell for curve in results for cell in cells(curve[i])])
    return columns, rows


def _write_csv(cfg: ExperimentConfig, columns, rows) -> None:
    lines = [
        "# fadefusion-csv v1",
        f"# scenario={cfg.scenario}",
        f"# seed={cfg.seed}",
        f"# trials={cfg.trials}",
        f"# config_hash={config_hash(cfg)}",
        ",".join(columns),
    ]
    lines += [",".join(_fmt(value) for value in row) for row in rows]
    with open(cfg.output, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _parse_set(items: Optional[Sequence[str]]) -> dict[str, str]:
    """``--set section.key=value`` options as a config override dict."""
    overrides = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _cmd_run(args) -> int:
    overrides = _parse_set(args.set)
    flags = {"experiment.seed": args.seed, "experiment.trials": args.trials,
             "output.path": args.output, "output.workers": args.workers}
    # Dedicated flags win over --set.
    overrides.update((key, str(value)) for key, value in flags.items() if value is not None)
    cfg = load_config(args.config, overrides=overrides)
    started = time.perf_counter()
    columns, rows = _run_sweep(cfg)
    _write_csv(cfg, columns, rows)
    elapsed = time.perf_counter() - started
    print(
        f"scenario={cfg.scenario} seed={cfg.seed} trials={cfg.trials} "
        f"points={len(rows)} wall_time={elapsed:.2f}s output={cfg.output}"
    )
    return 0


# ---------------------------------------------------------------------------
# alloc
# ---------------------------------------------------------------------------


def read_snapshot_file(path: str) -> Snapshot:
    """Parse the plain-text snapshot format: a sigma_theta_sq header line,
    then one 'gamma s' pair per line ('noiseless' or 'inf' marks gamma)."""
    sigma_theta_sq = None
    gamma, s = [], []
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" in line:
                    key, _, value = line.partition("=")
                    if key.strip() != "sigma_theta_sq":
                        raise ConfigError(f"{path}:{lineno}: unknown header {key.strip()!r}")
                    sigma_theta_sq = float(value)
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise ConfigError(f"{path}:{lineno}: expected 'gamma s'")
                gamma.append(
                    math.inf if fields[0].lower() in ("noiseless", "inf") else float(fields[0])
                )
                s.append(float(fields[1]))
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad number in snapshot file {path}: {exc}") from exc
    if sigma_theta_sq is None:
        raise ConfigError(f"{path}: missing 'sigma_theta_sq = ...' header")
    if not gamma:
        raise ConfigError(f"{path}: no sensors")
    try:
        return Snapshot.from_arrays(sigma_theta_sq, gamma, s)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_caps(raw: Optional[str], k: int) -> Optional[CapVector]:
    if raw is None:
        return None
    values = [math.inf if v.strip().lower() == "inf" else parse_power(v) for v in raw.split(",")]
    if len(values) == 1:
        values = values * k
    if len(values) != k:
        raise ConfigError(f"--caps needs 1 or {k} values, got {len(values)}")
    return CapVector(values)


def _print_allocation(snapshot, allocation, summary, machine: bool) -> None:
    """The per-sensor table (or key=value lines) and the ``summary`` (key, value) pairs."""
    powers = allocation.transmit_powers(snapshot)
    fields = [f"{key}={_fmt(value)}" for key, value in summary]
    if machine:
        print(f"k={snapshot.k}", *fields, sep="\n")
        for i in range(snapshot.k):
            print(
                f"sensor_{i + 1}: alpha_prime={_fmt(allocation.alpha_prime[i])} "
                f"transmit_w={_fmt(powers[i])} active={int(allocation.alpha_prime[i] > 0)}"
            )
        return
    print(f"{'sensor':>6}  {'gamma':>12}  {'s_per_w':>12}  {'alpha_prime':>14}  "
          f"{'transmit_w':>14}  active")
    for i, (gamma, s) in enumerate(zip(snapshot.gamma, snapshot.s)):
        gamma_txt = "noiseless" if math.isinf(gamma) else _fmt(gamma)
        print(
            f"{i + 1:>6}  {gamma_txt:>12}  {_fmt(s):>12}  "
            f"{_fmt(allocation.alpha_prime[i]):>14}  {_fmt(powers[i]):>14}  "
            f"{'yes' if allocation.alpha_prime[i] > 0 else 'no'}"
        )
    print("  ".join(fields))


def _cmd_alloc(args) -> int:
    snapshot = read_snapshot_file(args.snapshot)
    caps = _parse_caps(args.caps, snapshot.k)
    if args.budget is not None:
        if args.l2:
            raise ConfigError("--l2 applies to --target solves only")
        budget = parse_power(args.budget)
        if caps is None:
            allocation, diagnostics = max_performance_allocation(snapshot, budget)
        else:
            allocation, diagnostics = max_performance_with_caps(snapshot, budget, caps)
    else:
        if caps is not None:
            raise ConfigError("--caps applies to --budget solves only")
        target = float(args.target)
        if args.l2:
            allocation, diagnostics = l2_min_power_allocation(snapshot, target), None
        else:
            allocation, diagnostics = min_power_allocation(snapshot, target)
    summary = [("total_power_w", allocation.total_power(snapshot))]
    try:
        summary.append(("mse", blue_mse(snapshot, allocation)))
    except FadeFusionError:
        summary.append(("mse", math.inf))
    if diagnostics is not None:
        summary += [("active_count", diagnostics.active_count),
                    ("threshold", diagnostics.threshold_constant),
                    ("dual", diagnostics.dual_value)]
    _print_allocation(snapshot, allocation, summary, args.machine)
    return 0


# ---------------------------------------------------------------------------
# rate / dinf
# ---------------------------------------------------------------------------


def _cmd_rate(args) -> int:
    samples = None
    if args.samples is not None:
        try:
            samples = np.loadtxt(args.samples, ndmin=1)
        except OSError as exc:
            raise ConfigError(f"cannot read samples: {exc}") from exc
    query = RateFunctionQuery(a=args.a, mean_b=args.mean_b, samples=samples)
    if args.mean_b is not None:
        print(f"rate_closed={_fmt(rate_function_exponential(args.a, args.mean_b))}")
    value, theta_star = rate_function_numeric(query, full_output=True)
    print(f"rate_numeric={_fmt(value)}")
    print(f"theta_star={_fmt(theta_star)}")
    if args.k is not None:
        print(f"chernoff_bound_k{args.k}={_fmt(chernoff_bound(args.k, value))}")
    return 0


def _cmd_dinf(args) -> int:
    model = load_model_only(args.config, _parse_set(args.set))
    p_tot = parse_power(args.p_tot)
    print(f"d_infinity={_fmt(d_infinity(model, p_tot, k=args.k))}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadefusion",
        description="Fused-estimation outage experiments and power allocation tools",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config and write CSV")
    run.add_argument("--config", required=True, help="experiment file (key = value sections)")
    run.add_argument("--seed", type=int, default=None, help="override the run seed")
    run.add_argument("--trials", type=int, default=None, help="override the trial count")
    run.add_argument("--output", default=None, help="override the CSV path")
    run.add_argument("--workers", type=int, default=None, help="worker process count")
    run.add_argument(
        "--set", action="append", metavar="SECTION.KEY=VALUE", help="override any config value"
    )
    run.set_defaults(func=_cmd_run)

    alloc = sub.add_parser("alloc", help="solve one snapshot file and print the allocation")
    alloc.add_argument("snapshot", help="snapshot file: sigma_theta_sq header, 'gamma s' lines")
    group = alloc.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", help="sum transmit power (watts or dBm)")
    group.add_argument("--target", type=float, help="distortion target")
    alloc.add_argument("--caps", help="per-sensor transmit caps: one value or K comma-separated")
    alloc.add_argument("--l2", action="store_true", help="minimize the sum of squared powers")
    alloc.add_argument("--machine", action="store_true", help="key=value output for scripting")
    alloc.set_defaults(func=_cmd_alloc)

    rate = sub.add_parser("rate", help="evaluate the large-deviation rate function")
    rate.add_argument("--a", type=float, required=True, help="tail point of the sample mean")
    rate.add_argument("--mean-b", type=float, default=None, help="exponential distribution mean")
    rate.add_argument("--samples", default=None, help="file with one sample per line")
    rate.add_argument("--k", type=int, default=None, help="also print the K-sensor Chernoff bound")
    rate.set_defaults(func=_cmd_rate)

    dinf = sub.add_parser("dinf", help="distortion floor of the large-network limit")
    dinf.add_argument("--p-tot", required=True, help="total power (watts or dBm)")
    dinf.add_argument("--config", default=None, help="experiment file supplying the model")
    dinf.add_argument(
        "--set", action="append", metavar="SECTION.KEY=VALUE", help="override any config value"
    )
    dinf.add_argument("--k", type=int, default=1, help="sensor positions to average the merit over")
    dinf.set_defaults(func=_cmd_dinf)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FadeFusionError, ValueError) as exc:
        code, prefix = next((code, prefix) for kinds, code, prefix in _EXITS
                            if isinstance(exc, kinds))
        print(f"{prefix}: {exc}", file=sys.stderr)
        if isinstance(exc, InfeasibleTarget):
            print(f"feasibility_floor={_fmt(exc.floor)}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
