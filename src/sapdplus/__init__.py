"""Stochastic accelerated primal-dual solvers for weakly convex-(strongly)-
concave saddle-point problems, with certified parameter rules and a
benchmark CLI.

The re-exports below are lazy (PEP 562): a public name or a submodule is
imported on first access and then cached in this module, so that
``import sapdplus`` loads no numpy.  ``python -m sapdplus.cli`` imports this
package before it runs cli.py, and the CLI must act before numpy loads to
start it with one BLAS thread (see cli.py).  ``errors`` imports no numpy
and stays eager.  ``cli`` is not among the lazy submodules: importing it
before numpy fixes the process's BLAS thread count, so a host program
imports it by name.
"""

from importlib import import_module as _import_module

from .errors import ConfigurationError, DivergenceError, InfeasibleScheduleError

__version__ = "0.1.0"

# submodule -> the public names re-exported from it
_EXPORTS = {
    "evaluation": ("StationarityEstimate", "moreau_stationarity"),
    "outer": ("FixedT", "OuterConfig", "StationarityTarget", "sapd_plus_run",
              "smooth_then_solve"),
    "params": ("LmiCertificate", "Theorem1Schedule", "beta_of", "build_lmi",
               "build_vr_lmi", "certify", "theorem1_schedule", "theta_noise_floor",
               "vr_schedule"),
    "problem": ("ConvexityModuli", "FiniteSumSpec", "NoiseLevels", "ProblemSpec",
                "SmoothnessConstants", "shifted_subproblem"),
    "sapd": ("SapdParams", "SapdRunResult", "sapd_run"),
    "vr": ("VrParams", "vr_sapd_run"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("datasets", "errors", "evaluation", "outer", "params",
               "problem", "prox", "sapd", "vr")

__all__ = sorted(["ConfigurationError", "DivergenceError", "InfeasibleScheduleError",
                  *_ORIGIN])


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
