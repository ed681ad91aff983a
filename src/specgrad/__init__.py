"""Spectral conjugate-gradient solvers with a modified Wolfe line search."""

from .bench import (
    Profile,
    ResultRow,
    ResultTable,
    emit,
    load_results,
    performance_profile,
    performance_ratios,
    run_suite,
)
from .directions import DirectionParams, IterationRecord
from .linesearch import LineSearchOutcome, WolfeParams, modified_wolfe, standard_wolfe
from .problems import EvaluationError, InstrumentedOracle, Problem, family_names, problem
from .solver import RunResult, SolverConfig, default_config, minimize

__all__ = [
    "DirectionParams",
    "EvaluationError",
    "InstrumentedOracle",
    "IterationRecord",
    "LineSearchOutcome",
    "Problem",
    "Profile",
    "ResultRow",
    "ResultTable",
    "RunResult",
    "SolverConfig",
    "WolfeParams",
    "default_config",
    "emit",
    "family_names",
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
