"""The import path: submodules, scipy and numpy.random load only where they are used."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

COLD_START = """
import sys

import fadefusion.cli

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == [], f"importing fadefusion.cli loaded {loaded}"
# numpy.random (~6 MB resident) loads at the first sample; a sweep's parent process forks its
# workers before that and never samples itself.
loaded = sorted(m for m in sys.modules if m.startswith("numpy.random"))
assert loaded == [], f"importing fadefusion.cli loaded {loaded}"

import dataclasses
import math

import numpy as np

import fadefusion as ff

model = dataclasses.replace(
    ff.default_network(), observation=ff.ObservationModel.lognormal(0.01, 3.0)
)
s, gamma = ff.sample_batch(model, 3, 7, 0, 5)
assert gamma.shape == (5, 3) and np.isfinite(gamma).all() and (gamma > 0).all()
value = ff.rate_function_numeric(ff.RateFunctionQuery(a=0.4, mean_b=1.0))
assert math.isclose(value, ff.rate_function_exponential(0.4, 1.0), rel_tol=1e-9)
print("ok")
"""


SCALAR_SOLVE = """
import sys

import fadefusion as ff

snapshot = ff.Snapshot.from_arrays(1.0, [10.0, 20.0, 5.0], [2.0, 0.5, 1.0])
for allocation, _ in (
    ff.max_performance_allocation(snapshot, 0.01),
    ff.max_performance_with_caps(snapshot, 0.01, ff.CapVector.uniform(3, 0.005)),
    ff.min_power_allocation(snapshot, 0.2),
):
    assert ff.blue_mse(snapshot, allocation) > 0
loaded = sorted(m for m in sys.modules if m.startswith("fadefusion"))
assert loaded == ["fadefusion", "fadefusion.allocation", "fadefusion.errors",
                  "fadefusion.model"], loaded
for name in ("fadefusion.analysis", "concurrent.futures.process", "multiprocessing"):
    assert name not in sys.modules, f"a scalar solve loaded {name}"
print("ok")
"""

SINGLE_THREADED = """
import os

import fadefusion.cli
import scipy.optimize  # loads scipy's own OpenBLAS, which reads the same variable

tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else "-"
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""

#: Every public name of the package, by the submodule that defines it: the names that the
#: package imported eagerly before its submodules loaded on first use.
EXPORTED = {
    "allocation": ("AllocationDiagnostics", "CapVector", "l2_min_power_allocation",
                   "max_performance_allocation", "max_performance_with_caps",
                   "min_power_allocation"),
    "analysis": ("AverageDistortion", "CappedPolicy", "EqualPolicy", "MinPowerSummary",
                 "OptimalPolicy", "OutageEstimate", "RateFunctionQuery", "SandwichCheck",
                 "SlopeFit", "active_fraction", "average_distortion", "average_min_power",
                 "chernoff_bound", "d_infinity", "diversity_slope", "outage_probability",
                 "rate_function_exponential", "rate_function_numeric", "sandwich_check"),
    "channel": ("FadingModel", "NetworkModel", "ObservationModel", "PropagationModel",
                "RngStream", "default_network", "mean_merit", "sample_batch",
                "sample_snapshot"),
    "errors": ("AllPowerZero", "ConvergenceFailure", "DivergentMGF", "FadeFusionError",
               "InfeasibleTarget", "InsufficientData", "InternalConsistencyError",
               "NoUsableSensor"),
    "model": ("NOISELESS", "Allocation", "SignalPrior", "Snapshot", "blue_mse",
              "blue_mse_matrix_oracle", "distortion_floor", "equal_allocation",
              "equal_power_mse", "signal_contributions", "transmit_power"),
}


def _run(argv, environ=os.environ, **kwargs):
    env = {**environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120, **kwargs)


def test_cli_import_loads_no_scipy_and_the_lazy_imports_work_from_cold():
    done = _run([sys.executable, "-c", COLD_START])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_the_cli_starts_with_one_blas_thread_unless_the_caller_chose_a_count():
    # This process may carry the CLI's "1" from an earlier in-process import: start clean.
    unset = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    fresh = _run([sys.executable, "-c", SINGLE_THREADED], unset)
    preset = _run([sys.executable, "-c", SINGLE_THREADED], {**unset, "OPENBLAS_NUM_THREADS": "2"})
    assert fresh.returncode == 0, fresh.stderr
    assert preset.returncode == 0, preset.stderr
    value, threads = fresh.stdout.split()
    assert value == "1"
    assert preset.stdout.split()[0] == "2"
    if threads == "-":
        pytest.skip("no /proc/self/task to count this process's threads")
    assert threads == "1", f"numpy and scipy left {threads} OS threads"


def test_a_scalar_solve_loads_neither_the_monte_carlo_driver_nor_the_process_pool():
    done = _run([sys.executable, "-c", SCALAR_SOLVE])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_every_public_name_is_its_submodules_object_and_is_listed():
    import importlib

    import fadefusion

    listed = set(dir(fadefusion))
    for module_name, names in EXPORTED.items():
        module = importlib.import_module(f"fadefusion.{module_name}")
        assert getattr(fadefusion, module_name) is module
        for name in names:
            assert getattr(fadefusion, name) is getattr(module, name), name
            assert name in fadefusion.__all__ and name in listed, name
    assert sorted(fadefusion.__all__) == sorted(n for names in EXPORTED.values() for n in names)
    assert "__version__" in vars(fadefusion)  # eager: cli imports it
    with pytest.raises(AttributeError, match="no_such_name"):
        fadefusion.no_such_name


def test_the_benchmark_self_test_passes():
    # Both trace modes patch library names from outside; a change to how the package
    # imports its submodules must keep those patch points working.
    done = _run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr


def test_the_names_the_tracing_harness_patches_stay_importable():
    # perfbench wraps these names where their callers look them up, so an import that
    # looks unused in the library still has a caller.
    import fadefusion
    import fadefusion.analysis
    import fadefusion.cli

    patched = {
        fadefusion.analysis: ("sample_batch", "ProcessPoolExecutor", "equal_power_mse_batch",
                              "sum_power_mse_batch"),
        fadefusion.cli: ("outage_probability", "average_distortion", "active_fraction",
                         "average_min_power", "load_config"),
        fadefusion: ("max_performance_allocation", "max_performance_with_caps",
                     "min_power_allocation", "blue_mse"),
    }
    for module, names in patched.items():
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)
