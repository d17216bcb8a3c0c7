"""Stochastic accelerated primal-dual solvers for weakly convex-(strongly)-
concave saddle-point problems, with certified parameter rules and a
benchmark CLI."""

from .errors import ConfigurationError, DivergenceError, InfeasibleScheduleError
from .evaluation import StationarityEstimate, moreau_stationarity
from .outer import (FixedT, OuterConfig, StationarityTarget, sapd_plus_run,
                    smooth_then_solve)
from .params import (LmiCertificate, Theorem1Schedule, beta_of, build_lmi,
                     build_vr_lmi, theorem1_schedule, theta_noise_floor,
                     vr_schedule)
from .problem import (ConvexityModuli, FiniteSumSpec, NoiseLevels,
                      ProblemSpec, SmoothnessConstants, shifted_subproblem)
from .sapd import SapdParams, SapdRunResult, sapd_run
from .vr import VrParams, vr_sapd_run

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "ConvexityModuli", "DivergenceError",
    "FiniteSumSpec", "FixedT", "InfeasibleScheduleError", "LmiCertificate",
    "NoiseLevels", "OuterConfig", "ProblemSpec", "SapdParams",
    "SapdRunResult", "SmoothnessConstants", "StationarityEstimate",
    "StationarityTarget", "Theorem1Schedule", "VrParams", "beta_of",
    "build_lmi", "build_vr_lmi", "moreau_stationarity", "sapd_plus_run",
    "sapd_run", "shifted_subproblem", "smooth_then_solve", "theorem1_schedule",
    "theta_noise_floor", "vr_sapd_run", "vr_schedule",
]
