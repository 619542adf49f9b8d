"""Distributed estimation over fading links: BLUE fusion, power allocation,
outage and diversity simulation.

Submodules load on first use (PEP 562): each public name below is imported
from its submodule the first time it is looked up, then kept in the
package namespace.  A scalar solve so loads ``model``, ``allocation`` and
``errors`` (plus ``channel`` to sample its snapshots), never the Monte
Carlo driver in ``analysis`` with its process-pool imports.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
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
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Load a public name, or one of the submodules above, on its first lookup."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
