"""Distributed estimation over fading links: BLUE fusion, power allocation,
outage and diversity simulation."""

from .allocation import (
    AllocationDiagnostics,
    CapVector,
    l2_min_power_allocation,
    max_performance_allocation,
    max_performance_with_caps,
    min_power_allocation,
)
from .analysis import (
    AverageDistortion,
    CappedPolicy,
    EqualPolicy,
    MinPowerSummary,
    OptimalPolicy,
    OutageEstimate,
    RateFunctionQuery,
    SandwichCheck,
    SlopeFit,
    active_fraction,
    average_distortion,
    average_min_power,
    chernoff_bound,
    d_infinity,
    diversity_slope,
    outage_probability,
    rate_function_exponential,
    rate_function_numeric,
    sandwich_check,
)
from .channel import (
    FadingModel,
    NetworkModel,
    ObservationModel,
    PropagationModel,
    RngStream,
    default_network,
    mean_merit,
    sample_batch,
    sample_snapshot,
)
from .errors import (
    AllPowerZero,
    ConvergenceFailure,
    DivergentMGF,
    FadeFusionError,
    InfeasibleTarget,
    InsufficientData,
    InternalConsistencyError,
    NoUsableSensor,
)
from .model import (
    NOISELESS,
    Allocation,
    SignalPrior,
    Snapshot,
    blue_mse,
    blue_mse_matrix_oracle,
    distortion_floor,
    equal_allocation,
    equal_power_mse,
    signal_contributions,
    transmit_power,
)

__version__ = "0.1.0"
