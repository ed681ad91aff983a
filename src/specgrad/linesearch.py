"""Standard and modified Wolfe line searches over one bracketing engine.

Both searches accept a step iff the Armijo condition

    f(x + a d) <= f(x) + rho a g^T d

holds together with a curvature condition: the standard form

    g(x + a d)^T d >= sigma g^T d

or the modified form that adds min(t, 0) s to the trial gradient, where t is
the safeguarded secant scaling evaluated at the trial point.  Acceptance is
evaluated to the documented tolerances (1e-12 relative on each side); without
that slack the Armijo test turns into comparing evaluation noise once the
per-step decrease drops below the roundoff floor of f, and searches stall
just short of tight gradient tolerances.  The post-hoc verifier applies the
identical expressions, so accepted steps re-verify exactly.

A trial point with non-finite objective or gradient is treated as a rejected
(Armijo-fail) trial so the bracket can recover; it still charges the
evaluation counters.  The engine expands the trial step geometrically until a
bracket forms, then shrinks it by safeguarded quadratic interpolation with
bisection fallback.  Every trial evaluates f and g together (one nf plus one
ng).

Trials are scalar-only.  The step is s = alpha d, so with g^T d (taken once
by the caller) and d^T d (taken once per search), one trial costs the point
x + alpha d, one f+g evaluation and one dot product, g_t^T d:

    mu    = 2 (f - f_t) + alpha (g^T d + g_t^T d)
    s^T d = alpha d^T d,        |s|^2 = alpha (alpha d^T d)
    t     = t_coefficient(mu, |s|^2),  modified curvature term min(t, 0) s^T d

A trial builds no s, no g + g_t and no y.  The vectors s, y = g_t - g and
z = y + t s are built once, for the accepted trial, from the trial's mu and
t.  The outcome also carries the search's dot products (:class:`StepSlopes`)
so the direction update need not take them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numkit import Vector, dot
from .problems import EvaluationError, InstrumentedOracle
from .secant import SecantData, SecantParams, StepSlopes, t_coefficient, z_vector
from .secant import mu  # noqa: F401  (no caller here; perfbench's tracer patches this name)

ACCEPTED = "accepted"
MAX_TRIALS_EXCEEDED = "max_trials_exceeded"
DEGENERATE_DIRECTION = "degenerate_direction"

# Relative tolerances applied both when accepting a step and when re-verifying
# it post hoc; the two paths share _armijo_holds/_curvature_holds bit for bit.
ARMIJO_TOL_REL = 1e-12
CURVATURE_TOL_REL = 1e-12

# Trial budget of one search, and the cap on any trial step.
MAX_TRIALS = 60
ALPHA_MAX = 1e6


def _armijo_holds(f0: float, gd0: float, alpha: float, f_new: float, rho: float) -> bool:
    return f_new <= f0 + rho * alpha * gd0 + ARMIJO_TOL_REL * (1.0 + abs(f0))


def _curvature_holds(curv_lhs: float, gd0: float, sigma: float) -> bool:
    return curv_lhs >= sigma * gd0 - CURVATURE_TOL_REL * abs(gd0)


@dataclass(frozen=True)
class WolfeParams:
    """The (rho, sigma) pair of the search; the only copy a configuration holds."""

    rho: float = 0.18
    sigma: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < self.sigma < 1.0:
            raise ValueError(f"need 0 < rho < sigma < 1, got rho={self.rho}, sigma={self.sigma}")

    @property
    def C(self) -> float:
        """Secant safeguard (sigma - rho) / (1 - 2 rho + sigma) scaling a non-positive mu."""
        return (self.sigma - self.rho) / (1.0 - 2.0 * self.rho + self.sigma)


@dataclass
class LineSearchOutcome:
    alpha: float
    x_new: Vector | None
    f_new: float
    g_new: Vector | None
    secant: SecantData | None
    status: str
    nf_used: int  # trials; each evaluates f and g once
    slopes: StepSlopes | None = None


@dataclass
class TrialPoint:
    """One evaluated trial step along the ray x + alpha d."""

    alpha: float
    f: float
    dphi: float  # directional derivative g(x + alpha d)^T d
    armijo_ok: bool
    curv_ok: bool
    payload: tuple | None = None
    underflow: bool = False

    @property
    def acceptable(self) -> bool:
        return self.armijo_ok and self.curv_ok


def _interpolate(lo_alpha, lo_f, lo_dphi, hi_alpha, hi_f) -> float:
    """Quadratic-minimum step inside the bracket, safeguarded to shrink it >= 10%."""
    left, right = (lo_alpha, hi_alpha) if lo_alpha < hi_alpha else (hi_alpha, lo_alpha)
    width = right - left
    guard_lo = left + 0.1 * width
    guard_hi = right - 0.1 * width
    delta = hi_alpha - lo_alpha
    denom = hi_f - lo_f - lo_dphi * delta
    if math.isfinite(denom) and denom > 0.0:
        cand = lo_alpha - 0.5 * lo_dphi * delta * delta / denom
        if math.isfinite(cand):
            return min(max(cand, guard_lo), guard_hi)
    return 0.5 * (left + right)


def bracket_zoom(evaluate, f0: float, slope0: float, alpha0: float):
    """Find a trial point whose Armijo and curvature flags both hold.

    ``evaluate(alpha)`` must return a :class:`TrialPoint`; ``f0`` and
    ``slope0`` describe the ray at alpha = 0 with ``slope0 < 0``.  Returns
    ``(trial_or_None, trials_used, status)``.
    """
    if not slope0 < 0.0:
        return None, 0, DEGENERATE_DIRECTION
    if not alpha0 > 0.0:
        raise ValueError(f"initial trial step must be positive, got {alpha0}")

    # f-value comparisons share the Armijo slack: once per-step decreases sink
    # below the ulp of f, value ordering is noise and only the (noise-robust)
    # directional derivative can steer the bracket.
    ftol = ARMIJO_TOL_REL * (1.0 + abs(f0))
    trials = 0
    prev_alpha, prev_f, prev_dphi = 0.0, f0, slope0
    alpha = min(alpha0, ALPHA_MAX)

    lo = hi = None
    while trials < MAX_TRIALS:
        t = evaluate(alpha)
        trials += 1
        if t.underflow:
            return None, trials, MAX_TRIALS_EXCEEDED
        if t.acceptable:
            return t, trials, ACCEPTED
        if not t.armijo_ok or t.f >= prev_f + ftol:
            lo, hi = (prev_alpha, prev_f, prev_dphi), (t.alpha, t.f)
            break
        if t.dphi >= 0.0:
            lo, hi = (t.alpha, t.f, t.dphi), (prev_alpha, prev_f)
            break
        prev_alpha, prev_f, prev_dphi = t.alpha, t.f, t.dphi
        if alpha >= ALPHA_MAX:
            return None, trials, MAX_TRIALS_EXCEEDED
        alpha = min(2.0 * alpha, ALPHA_MAX)

    # Zoom: lo satisfies Armijo with the lowest value seen and points downhill
    # toward hi; shrink until the full predicate holds or trials run out.
    while trials < MAX_TRIALS:
        lo_alpha, lo_f, lo_dphi = lo
        hi_alpha, hi_f = hi
        alpha = _interpolate(lo_alpha, lo_f, lo_dphi, hi_alpha, hi_f)
        if alpha == lo_alpha or alpha == hi_alpha or not alpha > 0.0:
            return None, trials, MAX_TRIALS_EXCEEDED
        t = evaluate(alpha)
        trials += 1
        if t.underflow:
            return None, trials, MAX_TRIALS_EXCEEDED
        if t.acceptable:
            return t, trials, ACCEPTED
        if not t.armijo_ok or t.f >= lo_f + ftol:
            hi = (t.alpha, t.f)
        else:
            if t.dphi * (hi_alpha - lo_alpha) >= 0.0:
                hi = (lo_alpha, lo_f)
            lo = (t.alpha, t.f, t.dphi)
    return None, trials, MAX_TRIALS_EXCEEDED


def _search(oracle, x, f, g, d, params, secant_params, alpha0, gd0, modified):
    if gd0 is None:
        gd0 = dot(g, d)
    # A slope of -inf (g^T d overflowed) puts Armijo's right side at -inf: no
    # trial could pass, so the search ends here like an ascent direction.
    if not -math.inf < gd0 < 0.0:
        return LineSearchOutcome(0.0, None, f, None, None, DEGENERATE_DIRECTION, 0)
    dd = dot(d, d)
    coefficient, C = secant_params.coefficient, params.C

    def evaluate(alpha: float) -> TrialPoint:
        x_t = x + alpha * d
        try:
            f_t, g_t = oracle.eval_fg(x_t)
        except EvaluationError:
            return TrialPoint(alpha, math.inf, math.nan, False, False)
        sd = alpha * dd  # s^T d and |s|^2, as StepSlopes.sd and .s_norm_sq
        s_norm_sq = alpha * sd
        if not s_norm_sq > 0.0:
            return TrialPoint(alpha, f_t, math.nan, False, False, underflow=True)
        dphi = dot(g_t, d)
        mu_t = 2.0 * (f - f_t) + alpha * (gd0 + dphi)
        t_t = t_coefficient(mu_t, s_norm_sq, coefficient, C)
        armijo_ok = _armijo_holds(f, gd0, alpha, f_t, params.rho)
        if modified:
            curv_lhs = dphi + min(t_t, 0.0) * sd
        else:
            curv_lhs = dphi
        curv_ok = _curvature_holds(curv_lhs, gd0, params.sigma)
        return TrialPoint(alpha, f_t, dphi, armijo_ok, curv_ok, payload=(x_t, g_t, mu_t, t_t))

    best, trials, status = bracket_zoom(evaluate, f, gd0, alpha0)
    if status != ACCEPTED:
        return LineSearchOutcome(0.0, None, f, None, None, status, trials)
    x_t, g_t, mu_t, t_t = best.payload
    s = best.alpha * d
    y = g_t - g
    bundle = SecantData(s=s, y=y, mu=mu_t, t=t_t, z=z_vector(y, s, t_t))
    slopes = StepSlopes(best.alpha, gd0, best.dphi, dd)
    return LineSearchOutcome(best.alpha, x_t, best.f, g_t, bundle, ACCEPTED, trials, slopes)


def standard_wolfe(
    oracle: InstrumentedOracle,
    x: Vector,
    f: float,
    g: Vector,
    d: Vector,
    params: WolfeParams,
    secant_params: SecantParams,
    alpha0: float,
    gd: float | None = None,
) -> LineSearchOutcome:
    """Weak-Wolfe search; the secant bundle is still computed for direction updates.

    ``gd`` is g^T d when the caller already has it; it is taken here otherwise.
    """
    return _search(oracle, x, f, g, d, params, secant_params, alpha0, gd, False)


def modified_wolfe(
    oracle: InstrumentedOracle,
    x: Vector,
    f: float,
    g: Vector,
    d: Vector,
    params: WolfeParams,
    secant_params: SecantParams,
    alpha0: float,
    gd: float | None = None,
) -> LineSearchOutcome:
    """Wolfe search with the min(t, 0) s correction inside the curvature test.

    Same signature as :func:`standard_wolfe`.
    """
    return _search(oracle, x, f, g, d, params, secant_params, alpha0, gd, True)


def verify_accepted_step(
    f0: float,
    g0: Vector,
    d: Vector,
    outcome: LineSearchOutcome,
    params: WolfeParams,
    modified: bool,
    lipschitz: float | None = None,
    order_coefficient: float | None = None,
) -> dict[str, bool]:
    """Re-check the acceptance conditions of an accepted step from raw vectors.

    Returns per-condition booleans: ``armijo``, ``curvature``, and for the
    modified search ``dz_curvature`` (d^T z >= (1 - sigma)(-g^T d)) plus
    ``t_bounds`` when an exact gradient-Lipschitz constant is supplied.
    """
    if outcome.status != ACCEPTED or outcome.secant is None:
        raise ValueError("verify_accepted_step needs an accepted outcome with a secant bundle")
    sec = outcome.secant
    gd0 = dot(g0, d)
    checks: dict[str, bool] = {}
    checks["armijo"] = _armijo_holds(f0, gd0, outcome.alpha, outcome.f_new, params.rho)
    if modified:
        curv_lhs = dot(outcome.g_new, d) + min(sec.t, 0.0) * (outcome.alpha * dot(d, d))
    else:
        curv_lhs = dot(outcome.g_new, d)
    checks["curvature"] = _curvature_holds(curv_lhs, gd0, params.sigma)
    if modified:
        curv_tol = CURVATURE_TOL_REL * abs(gd0)
        checks["dz_curvature"] = dot(d, sec.z) >= (1.0 - params.sigma) * (-gd0) - curv_tol
        if lipschitz is not None and order_coefficient is not None:
            eps = 2.220446049250313e-16
            checks["t_bounds"] = (
                -params.C * lipschitz - eps <= sec.t <= order_coefficient * lipschitz + eps
            )
    return checks
