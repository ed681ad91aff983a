"""Iteration driver: line search, secant update, direction update, termination.

One :func:`minimize` call owns one instrumented oracle.  Iterations count
accepted steps; the run stops when the gradient infinity-norm drops to the
tolerance, the step budget is exhausted, or the line search fails.  Every
accepted step is re-audited in place (Armijo, curvature, the d^T z lower
bound, t bounds on problems with an exact Lipschitz constant, sufficient
descent of the next direction); the tallies ride along on the result so
benchmark-wide audits need no second pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .directions import ETA, DirectionParams, IterationRecord, next_direction, theta_bar
from .linesearch import (
    ACCEPTED,
    LineSearchOutcome,
    WolfeParams,
    armijo_holds,
    curvature_holds,
    modified_wolfe,
    standard_wolfe,
)
from .numkit import Vector, dot, norm_inf
from .problems import EvaluationError, InstrumentedOracle, Problem
from .secant import EPS

CONVERGED = "converged"
ITER_LIMIT = "iter_limit"
LINESEARCH_FAILURE = "linesearch_failure"
EVAL_ERROR = "eval_error"
STATUSES = (CONVERGED, ITER_LIMIT, LINESEARCH_FAILURE, EVAL_ERROR)


@dataclass(frozen=True)
class SolverConfig:
    wolfe: WolfeParams
    direction: DirectionParams
    epsilon: float = 1e-8
    max_iter: int = 10000
    trace_level: str = "none"  # none | full

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.trace_level not in ("none", "full"):
            raise ValueError(f"unknown trace_level '{self.trace_level}'")


def default_config(solver: str = "scgmmwls", **options) -> SolverConfig:
    """Paper-default configuration of a solver id (:meth:`DirectionParams.parse`):
    ``WolfeParams()``'s (rho, sigma) for scgmmwls, (0.1, 0.9) for dk/jian/m2;
    ``options`` are :class:`SolverConfig`'s ``epsilon``, ``max_iter`` and
    ``trace_level``.  A custom pair is ``SolverConfig(WolfeParams(rho, sigma), ...)``."""
    direction = DirectionParams.parse(solver)
    wolfe = WolfeParams() if direction.method == "scgmmwls" else WolfeParams(0.1, 0.9)
    return SolverConfig(wolfe, direction, **options)


@dataclass
class AuditReport:
    """Violation tallies from re-checking every accepted step in place."""

    steps: int = 0
    armijo_violations: int = 0
    curvature_violations: int = 0
    dz_curvature_violations: int = 0
    t_bound_checks: int = 0
    t_bound_violations: int = 0
    descent_checks: int = 0
    descent_violations: int = 0
    theta_violations: int = 0

    def check_wolfe(
        self,
        f0: float,
        g0: Vector,
        d: Vector,
        outcome: LineSearchOutcome,
        config: SolverConfig,
        lipschitz: float | None,
        modified: bool,
    ) -> None:
        """Re-check an accepted step from the raw vectors with the search's own
        predicates; a modified step also gets d^T z >= (1 - sigma)|g^T d|, the
        curvature test read through z, and, given an exact gradient-Lipschitz
        constant L, the bounds -C L <= t <= c_m L."""
        self.steps += 1
        params = config.wolfe
        gd0 = dot(g0, d)
        self.armijo_violations += not armijo_holds(f0, gd0, outcome.alpha, outcome.f_new, params.rho)
        curv_lhs = dot(outcome.g_new, d)
        if modified:
            curv_lhs += min(outcome.t, 0.0) * (outcome.alpha * dot(d, d))
        self.curvature_violations += not curvature_holds(curv_lhs, gd0, params.sigma)
        if not modified:
            return
        self.dz_curvature_violations += not curvature_holds(dot(d, outcome.z) + gd0, gd0, params.sigma)
        if lipschitz is not None:
            t_max = config.direction.coefficient * lipschitz + EPS
            self.t_bound_checks += 1
            self.t_bound_violations += not -params.C * lipschitz - EPS <= outcome.t <= t_max

    def check_direction(self, g_new: Vector, d_new: Vector, theta: float) -> None:
        self.descent_checks += 1
        if not dot(g_new, d_new) <= -ETA * dot(g_new, g_new):
            self.descent_violations += 1
        if theta_bar(theta) != theta:
            self.theta_violations += 1


@dataclass
class RunResult:
    status: str
    ni: int
    nf: int
    f_final: float
    gnorm_inf_final: float
    trace: list[IterationRecord] | None = field(default=None, kw_only=True)  # step k is trace[k]
    audit: AuditReport | None = field(default=None, kw_only=True)  # None for rows read back

    @property
    def ng(self) -> int:
        return self.nf  # each evaluation takes f and g together


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def minimize(problem: Problem, config: SolverConfig) -> RunResult:
    """Run one solver from the problem's start.  Floating-point warnings are off
    for the run: the oracle's finiteness checks catch an overflowing trial."""
    oracle = InstrumentedOracle(problem)
    trace: list[IterationRecord] | None = [] if config.trace_level == "full" else None
    audit = AuditReport()
    method = config.direction.method
    modified = method == "scgmmwls"
    search = modified_wolfe if modified else standard_wolfe
    spectral = method != "dk"  # dk alone has theta = 1 and no ETA margin
    coefficient = config.direction.coefficient

    x = problem.start.copy()
    try:
        f, g = oracle.eval_fg(x)
    except EvaluationError:
        return RunResult(EVAL_ERROR, 0, oracle.nf, math.nan, math.nan, trace=trace, audit=audit)

    d, gd = -g, -dot(g, g)  # every later slope comes from the update that made d
    gnorm = norm_inf(g)
    alpha0 = 1.0 / max(gnorm, config.epsilon)  # 1/|g0|_inf, read only if gnorm > epsilon
    k = 0
    outcome = None  # the last accepted step, which sets the next search's first trial
    while True:
        if gnorm <= config.epsilon:
            status = CONVERGED
            break
        if k >= config.max_iter:
            status = ITER_LIMIT
            break

        outcome = search(oracle, x, f, g, d, config.wolfe, coefficient, alpha0, gd, outcome)
        if outcome.status != ACCEPTED:
            status = LINESEARCH_FAILURE
            break

        audit.check_wolfe(f, g, d, outcome, config, problem.lipschitz_hint, modified)

        g_new = outcome.g_new
        gnorm = norm_inf(g_new)
        d_new, rec = next_direction(d, outcome, config.direction)
        if spectral:
            audit.check_direction(g_new, d_new, rec.theta)
        if trace is not None:
            trace.append(rec)

        x, f, g, d, gd = outcome.x_new, outcome.f_new, g_new, d_new, rec.gd
        k += 1

    return RunResult(status, k, oracle.nf, f, gnorm, trace=trace, audit=audit)

