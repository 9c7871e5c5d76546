"""Secrecy rate regions and power allocation for the two-user Gaussian
multiple-access wiretap channel."""

from .channel import (
    DegradednessReport,
    RawChannelConfig,
    StandardChannel,
    check_degraded,
    standardize,
)
from .errors import NonDegradedError, ValidationError
from .optimizer import (
    PowerAllocation,
    grid_oracle,
    optimal_powers_jam,
    optimal_powers_sum,
    tdma_optimal_alpha,
)
from .rates import cw, enumerate_subsets, g
from .regions import (
    DeltaRateVector,
    RateConstraintSet,
    RateVector,
    RegionBoundary2D,
    collective_region_at,
    delta_region,
    individual_region_at,
    membership,
    outer_region_at,
    rate_split_collective,
    rate_split_individual,
    region_boundary_2d,
    sum_capacity_degraded,
    tdma_region_at,
)
from .scenario import ScenarioConfig, ScenarioResult, gains_at, sweep

__version__ = "0.1.0"

__all__ = [
    "DegradednessReport",
    "RawChannelConfig",
    "StandardChannel",
    "check_degraded",
    "standardize",
    "NonDegradedError",
    "ValidationError",
    "PowerAllocation",
    "grid_oracle",
    "optimal_powers_jam",
    "optimal_powers_sum",
    "tdma_optimal_alpha",
    "cw",
    "enumerate_subsets",
    "g",
    "DeltaRateVector",
    "RateConstraintSet",
    "RateVector",
    "RegionBoundary2D",
    "collective_region_at",
    "delta_region",
    "individual_region_at",
    "membership",
    "outer_region_at",
    "rate_split_collective",
    "rate_split_individual",
    "region_boundary_2d",
    "sum_capacity_degraded",
    "tdma_region_at",
    "ScenarioConfig",
    "ScenarioResult",
    "gains_at",
    "sweep",
    "__version__",
]
