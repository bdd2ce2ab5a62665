"""Potential-constrained Gaussian belief recursion on discrete-time Ito processes."""

__version__ = "0.1.0"

from .control import ControlConfig, ScenarioResult, run_closed_loop, run_scenario
from .ekf import ObservationModel, ObservationStream, ekf_step, filter_with_likelihood, marginal_likelihood
from .engine import (
    GaussianBelief,
    NormalizationDiagnostic,
    TrajectoryRecord,
    predict,
    sample_posterior,
    update,
)
from .errors import (
    DomainViolation,
    MassLoss,
    NonFinite,
    NotPositiveDefinite,
    ParseError,
    QuadratureDomain,
    Singular,
    SqcError,
    ValidationError,
)
from .potential import (
    PotentialEvaluation,
    eval_double_well,
    eval_log_barrier,
    eval_quadratic_penalty,
    tanh_target,
    verify_derivatives,
)
from .process import ItoProcessModel, StatePath, make_drift, simulate_open_loop
from .scenario import Scenario, load_bundled, parse_scenario, scenario_from_dict, write_scenario

__all__ = [
    "__version__",
    "ControlConfig",
    "DomainViolation",
    "GaussianBelief",
    "ItoProcessModel",
    "MassLoss",
    "NonFinite",
    "NormalizationDiagnostic",
    "NotPositiveDefinite",
    "ObservationModel",
    "ObservationStream",
    "ParseError",
    "PotentialEvaluation",
    "QuadratureDomain",
    "Scenario",
    "ScenarioResult",
    "Singular",
    "SqcError",
    "StatePath",
    "TrajectoryRecord",
    "ValidationError",
    "ekf_step",
    "eval_double_well",
    "eval_log_barrier",
    "eval_quadratic_penalty",
    "filter_with_likelihood",
    "load_bundled",
    "make_drift",
    "marginal_likelihood",
    "parse_scenario",
    "predict",
    "run_closed_loop",
    "run_scenario",
    "sample_posterior",
    "scenario_from_dict",
    "simulate_open_loop",
    "tanh_target",
    "update",
    "verify_derivatives",
    "write_scenario",
]
