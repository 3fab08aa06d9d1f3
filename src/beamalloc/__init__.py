"""Power allocation with congestion control for precoded multi-beam
satellite downlinks: feasibility certification, satisfied-set maximization,
water-filling allocators and a learned surrogate."""

from .allocators import (
    AllocationResult,
    QoSProfile,
    equal_power,
    joint_opt,
    joint_opt_generic,
    joint_opt_rzf,
    joint_opt_zf,
    satis_set_opt,
    sum_opt,
)
from .channel import (
    AtmosphereState,
    AttenuationOverflowError,
    ChannelMatrix,
    UserDrop,
    apply_atmosphere,
    beam_gain,
    build_channel,
    drop_users,
)
from .config import InvalidConfigError, SystemConfig
from .feasibility import (
    DegenerateChannelError,
    DemandSystem,
    FeasibilityReport,
    build_demand_system,
    check_feasible,
)
from .metrics import MetricsSummary, aggregate, jain, lambda_objective, rates, sinr
from .precoding import Precoder, PrecoderSingularError, effective_gains, make_rzf, make_zf
from .waterfill import waterfill

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "AtmosphereState",
    "AttenuationOverflowError",
    "ChannelMatrix",
    "DegenerateChannelError",
    "DemandSystem",
    "FeasibilityReport",
    "InvalidConfigError",
    "MetricsSummary",
    "Precoder",
    "PrecoderSingularError",
    "QoSProfile",
    "SystemConfig",
    "UserDrop",
    "aggregate",
    "apply_atmosphere",
    "beam_gain",
    "build_channel",
    "build_demand_system",
    "check_feasible",
    "drop_users",
    "effective_gains",
    "equal_power",
    "jain",
    "joint_opt",
    "joint_opt_generic",
    "joint_opt_rzf",
    "joint_opt_zf",
    "lambda_objective",
    "make_rzf",
    "make_zf",
    "rates",
    "satis_set_opt",
    "sinr",
    "sum_opt",
    "waterfill",
]
