"""Run ``fadefusion.cli.main`` in this process, as the ``fadefusion`` console
script does, and record spans around the import and the ``main`` call.

Usage: python3 perfbench/cli_run.py OUT.json {plain|estimators|full} -- CLI ARGS...

``plain`` patches nothing: it is the untraced run, and its ``main`` span is
the time the run spent past start-up.  ``full`` also spans every layer on the
run pipeline and must run at one worker, so that every span lands in this
process.  ``estimators`` spans only the estimator calls and counts process
pools; it is the pass made at a workload's own worker count.  Spans are
written to OUT.json when the process ends.
"""

from __future__ import annotations

import sys

from tracing import ESTIMATORS, KERNELS, Tracer

tracer = Tracer()
ROOT = tracer.begin("trace.run")
sampled: list[tuple[int, int, int, int]] = []  # (K, seed, start trial, trials) per sample_batch call


def _count_sample(tr, model, k, seed, start_trial, n_trials):
    tr.counters["channel.rows"] += n_trials
    sampled.append((k, seed, start_trial, n_trials))


def _count_kernel_rows(tr, gamma, *args, **kwargs):
    tr.counters["allocation.row_sensors"] += gamma.size


def install(mode: str) -> None:
    """Patch the names callers look up: the CLI imported the estimators and
    load_config into its own namespace, analysis the sampler and kernels."""
    import fadefusion.analysis as analysis
    import fadefusion.cli as cli

    for name in ESTIMATORS:
        tracer.patch(cli, name, "analysis.estimator")

    class CountingPool(analysis.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.counters["analysis.pools_started"] += 1
            super().__init__(*args, **kwargs)

    tracer.replace(analysis, "ProcessPoolExecutor", CountingPool)
    if mode == "estimators":
        return
    tracer.patch(cli, "load_config", "config.load_config")
    tracer.patch(analysis, "sample_batch", "channel.sample_batch", _count_sample)
    for name in KERNELS:
        tracer.patch(analysis, name, f"allocation.{name}", _count_kernel_rows)


def distinct_pairs() -> int:
    """Distinct (K, seed, trial) triples covered by the sampled trial ranges."""
    ranges: dict = {}
    for k, seed, start, n in sampled:
        ranges.setdefault((k, seed), []).append((start, start + n))
    total = 0
    for spans in ranges.values():
        covered_to = -1
        for start, stop in sorted(spans):
            start = max(start, covered_to)
            if stop > start:
                total += stop - start
                covered_to = stop
    return total


def main() -> int:
    out, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "estimators", "full"):
        raise SystemExit(__doc__)
    span = tracer.begin("fadefusion.import")
    import fadefusion.cli as cli

    tracer.end(span)
    if mode != "plain":
        install(mode)
    span = tracer.begin("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.end(span)
        tracer.unpatch()
    if mode == "full":
        tracer.counters["channel.distinct_pairs"] = distinct_pairs()
    tracer.end(ROOT)
    tracer.dump(out, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
