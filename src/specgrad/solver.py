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

from .directions import DirectionDiag, DirectionParams, next_direction
from .linesearch import (
    ACCEPTED,
    ALPHA_MAX,
    LineSearchOutcome,
    WolfeParams,
    modified_wolfe,
    standard_wolfe,
    verify_accepted_step,
)
from .numkit import Vector, dot, norm_inf
from .problems import EvaluationError, InstrumentedOracle, Problem
from .secant import SecantParams

CONVERGED = "converged"
ITER_LIMIT = "iter_limit"
LINESEARCH_FAILURE = "linesearch_failure"
EVAL_ERROR = "eval_error"

# Numeric slack used when re-checking the sufficient-descent inequality.
DESCENT_TOL_REL = 1e-12


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


def default_config(
    method: str = "scgmmwls",
    m: float = 3,
    epsilon: float = 1e-8,
    max_iter: int = 10000,
    eta: float = 1e-3,
    tau: float = 10.0,
    rho: float | None = None,
    sigma: float | None = None,
    trace_level: str = "none",
) -> SolverConfig:
    """Paper-default configuration: (rho, sigma) = (0.18, 0.2) for scgmmwls,
    (0.1, 0.9) for the dk/jian/m2 baselines.  A ``rho`` or ``sigma`` left
    unset takes the method's default on its own, so a lone override is kept
    and an invalid pair still fails in :class:`WolfeParams`."""
    default_rho, default_sigma = (0.18, 0.2) if method == "scgmmwls" else (0.1, 0.9)
    rho = default_rho if rho is None else rho
    sigma = default_sigma if sigma is None else sigma
    return SolverConfig(
        wolfe=WolfeParams(rho=rho, sigma=sigma),
        direction=DirectionParams(method=method, eta=eta, tau=tau, secant=SecantParams(m=m)),
        epsilon=epsilon,
        max_iter=max_iter,
        trace_level=trace_level,
    )


@dataclass
class IterationRecord:
    k: int
    f: float
    gnorm_inf: float
    alpha: float
    mu: float
    t: float
    beta: float
    theta: float
    restart: bool


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
    zoutendijk: list[float] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.armijo_violations
            + self.curvature_violations
            + self.dz_curvature_violations
            + self.t_bound_violations
            + self.descent_violations
            + self.theta_violations
        ) == 0

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
        self.steps += 1
        checks = verify_accepted_step(
            f0,
            g0,
            d,
            outcome,
            config.wolfe,
            modified,
            lipschitz=lipschitz,
            order_coefficient=config.direction.secant.coefficient,
        )
        self.armijo_violations += not checks["armijo"]
        self.curvature_violations += not checks["curvature"]
        if modified:
            self.dz_curvature_violations += not checks["dz_curvature"]
            if "t_bounds" in checks:
                self.t_bound_checks += 1
                self.t_bound_violations += not checks["t_bounds"]

    def check_direction(
        self, g_new: Vector, d_new: Vector, diag: DirectionDiag, params: DirectionParams
    ) -> None:
        gg = dot(g_new, g_new)
        self.descent_checks += 1
        if not dot(g_new, d_new) <= (-params.eta + DESCENT_TOL_REL) * gg:
            self.descent_violations += 1
        in_range = 0.25 + params.eta <= diag.theta <= params.tau
        if not (diag.theta == 1.0 or in_range):
            self.theta_violations += 1


@dataclass
class RunResult:
    status: str
    ni: int
    nf: int
    ng: int
    f_final: float
    gnorm_inf_final: float
    trace: list[IterationRecord] | None = None
    audit: AuditReport | None = None  # None only for rows read back from emitted files


def _initial_alpha(k, gnorm_inf, alpha_prev, gd_prev, gd) -> float:
    if k == 0:
        return min(1.0 / gnorm_inf, ALPHA_MAX)
    val = alpha_prev * (gd_prev / gd)
    if not math.isfinite(val) or val <= 0.0:
        val = 1.0
    return min(max(val, 1e-10), ALPHA_MAX)


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
    spectral = method in ("scgmmwls", "m2", "jian")

    x = problem.start.copy()
    try:
        f, g = oracle.eval_fg(x)
    except EvaluationError:
        return RunResult(EVAL_ERROR, 0, oracle.nf, oracle.ng, math.nan, math.nan, trace, audit)

    d = -g.copy()
    k = 0
    alpha_prev = gd_prev = 0.0
    while True:
        gnorm = norm_inf(g)
        if gnorm <= config.epsilon:
            status = CONVERGED
            break
        if k >= config.max_iter:
            status = ITER_LIMIT
            break

        gd = dot(g, d)
        alpha0 = _initial_alpha(k, gnorm, alpha_prev, gd_prev, gd)
        outcome = search(oracle, x, f, g, d, config.wolfe, config.direction.secant, alpha0, gd=gd)
        if outcome.status != ACCEPTED:
            status = LINESEARCH_FAILURE
            break

        audit.check_wolfe(f, g, d, outcome, config, problem.lipschitz_hint, modified)
        if trace is not None:
            audit.zoutendijk.append(gd * gd / outcome.slopes.dd)

        g_new = outcome.g_new
        d_new, diag = next_direction(g_new, d, outcome.secant, config.direction, outcome.slopes)
        if spectral:
            audit.check_direction(g_new, d_new, diag, config.direction)

        if trace is not None:
            sec = outcome.secant
            trace.append(
                IterationRecord(
                    k=k,
                    f=outcome.f_new,
                    gnorm_inf=norm_inf(g_new),
                    alpha=outcome.alpha,
                    mu=sec.mu,
                    t=sec.t,
                    beta=diag.beta,
                    theta=diag.theta,
                    restart=diag.restart,
                )
            )

        x, f, g, d = outcome.x_new, outcome.f_new, g_new, d_new
        alpha_prev, gd_prev = outcome.alpha, gd
        k += 1

    return RunResult(status, k, oracle.nf, oracle.ng, f, norm_inf(g), trace, audit)

