"""LQR synthesis and certification over a Bernoulli packet-loss actuation channel.

The toolkit estimates an unknown packet-loss rate from finite channel
samples, synthesizes the certainty-equivalence optimal controller for the
estimate, certifies mean-square stability (sufficient conditions, explicit
stability-threshold bounds, and an exact lifted spectral-radius oracle),
bounds the sample size required for the controller to stabilize, and
quantifies its sub-optimality analytically and by seeded Monte Carlo.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionError,
    InvalidInputError,
    LossyLqrError,
    NoSolutionError,
    NotPSDError,
    NumericalFailureError,
    UnstableError,
)
from .learning import (
    Certificate,
    ChannelSamples,
    ComplexityReport,
    certify_ce_controller,
    estimate_loss_rate,
    hoeffding_delta,
    min_samples,
)
from .numerics import psd_sqrt, spectral_radius, sym_eig_extremes, symmetrize
from .performance import (
    GapCurvePoint,
    GapReport,
    gap,
    gap_bounds,
    gap_curve,
    initial_second_moment,
    second_moment_sum,
)
from .riccati import (
    CriticalProbability,
    Gain,
    RiccatiSolution,
    SystemSpec,
    ce_gain,
    critical_probability,
    dare_solve,
    mare_solve,
    optimal_cost,
)
from .simulator import (
    DecayVerdict,
    SimConfig,
    Trajectory,
    empirical_ms_decay,
    monte_carlo_cost,
    sample_channel,
    simulate_trajectory,
)
from .stability import (
    RegionMap,
    StabilityVerdict,
    ThresholdReport,
    condition_matrix,
    exact_ms_stable,
    lifted_matrix,
    lyapunov_sufficient_stable,
    region_map,
    scalar_iff_stable,
    st_lower_bound,
    zero_sample_safe_q,
)

__all__ = [
    "__version__",
    "LossyLqrError",
    "InvalidInputError",
    "DimensionError",
    "NotPSDError",
    "NumericalFailureError",
    "NoSolutionError",
    "UnstableError",
    "SystemSpec",
    "RiccatiSolution",
    "Gain",
    "CriticalProbability",
    "mare_solve",
    "dare_solve",
    "critical_probability",
    "ce_gain",
    "optimal_cost",
    "StabilityVerdict",
    "ThresholdReport",
    "RegionMap",
    "condition_matrix",
    "lyapunov_sufficient_stable",
    "scalar_iff_stable",
    "lifted_matrix",
    "exact_ms_stable",
    "st_lower_bound",
    "zero_sample_safe_q",
    "region_map",
    "ChannelSamples",
    "Certificate",
    "ComplexityReport",
    "estimate_loss_rate",
    "hoeffding_delta",
    "min_samples",
    "certify_ce_controller",
    "GapReport",
    "GapCurvePoint",
    "gap",
    "gap_bounds",
    "gap_curve",
    "second_moment_sum",
    "initial_second_moment",
    "SimConfig",
    "Trajectory",
    "DecayVerdict",
    "sample_channel",
    "simulate_trajectory",
    "monte_carlo_cost",
    "empirical_ms_decay",
    "symmetrize",
    "sym_eig_extremes",
    "psd_sqrt",
    "spectral_radius",
]
