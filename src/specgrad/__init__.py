"""Spectral conjugate-gradient solvers with a modified Wolfe line search."""

from .bench import (
    ProfileCurve,
    ResultRow,
    ResultTable,
    SolverSpec,
    emit,
    load_results,
    performance_profile,
    performance_ratios,
    run_suite,
)
from .directions import DirectionDiag, DirectionParams
from .linesearch import LineSearchOutcome, WolfeParams, modified_wolfe, standard_wolfe
from .numkit import FiniteDifferenceSpec, fd_gradient, fd_hessian_action
from .problems import (
    EvaluationError,
    InstrumentedOracle,
    Problem,
    family_names,
    gradient_check,
    problem,
)
from .secant import SecantData, SecantParams
from .solver import RunResult, SolverConfig, default_config, minimize

__all__ = [
    "DirectionDiag",
    "DirectionParams",
    "EvaluationError",
    "FiniteDifferenceSpec",
    "InstrumentedOracle",
    "LineSearchOutcome",
    "Problem",
    "ProfileCurve",
    "ResultRow",
    "ResultTable",
    "RunResult",
    "SecantData",
    "SecantParams",
    "SolverConfig",
    "SolverSpec",
    "WolfeParams",
    "default_config",
    "emit",
    "family_names",
    "fd_gradient",
    "fd_hessian_action",
    "gradient_check",
    "load_results",
    "minimize",
    "modified_wolfe",
    "performance_profile",
    "performance_ratios",
    "problem",
    "run_suite",
    "standard_wolfe",
]

__version__ = "0.1.0"
