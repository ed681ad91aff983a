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
just short of tight gradient tolerances.  The solver's audit re-checks each
accepted step from the raw vectors with the same :func:`armijo_holds` and
:func:`curvature_holds`, so accepted steps re-verify exactly.

A trial point with non-finite objective or gradient is treated as a rejected
(Armijo-fail) trial so the bracket can recover; it still charges the
evaluation counters.  The engine expands the trial step geometrically until a
bracket forms, then shrinks it by safeguarded quadratic interpolation with
bisection fallback.  Every trial evaluates f and g together (one nf plus one
ng).

Trials are scalar-only.  The step is s = alpha d, so with g^T d (taken once
by the caller) and d^T d (taken once per search), one trial costs s, the
point x + s, one f+g evaluation and one dot product, g_t^T d:

    mu    = 2 (f - f_t) + alpha (g^T d + g_t^T d)
    s^T d = alpha d^T d,        |s|^2 = alpha (alpha d^T d)
    t     = t_coefficient(mu, |s|^2),  modified curvature term min(t, 0) s^T d

The modified search takes mu and t on every trial, for its curvature term;
the standard one only for the accepted trial.  A trial builds no g + g_t and
no y.  The accepted trial keeps its s; y = g_t - g is built once, and z only
by the modified search, whose direction (scgmmwls) and audit read it.
:class:`LineSearchOutcome` is the one record of a step: it carries the
point, the secant bundle and the search's dot products, so the direction
update need not take them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numkit import Vector, dot
from .problems import EvaluationError, InstrumentedOracle
from .secant import t_coefficient, z_vector
from .secant import mu  # noqa: F401  (no caller here; perfbench's tracer patches this name)

ACCEPTED = "accepted"
MAX_TRIALS_EXCEEDED = "max_trials_exceeded"
DEGENERATE_DIRECTION = "degenerate_direction"

# Relative tolerances of acceptance; the search and the solver's audit share
# armijo_holds/curvature_holds bit for bit.
ARMIJO_TOL_REL = 1e-12
CURVATURE_TOL_REL = 1e-12

# Trial budget of one search, and the cap on any trial step.
MAX_TRIALS = 60
ALPHA_MAX = 1e6


def armijo_holds(f0: float, gd0: float, alpha: float, f_new: float, rho: float) -> bool:
    return f_new <= f0 + rho * alpha * gd0 + ARMIJO_TOL_REL * (1.0 + abs(f0))


def curvature_holds(curv_lhs: float, gd0: float, sigma: float) -> bool:
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


@dataclass(slots=True)
class LineSearchOutcome:
    """One search; ``f_new`` stays f(x) unless a step s = alpha d is accepted, which
    also carries y = g_new - g_old, g_old^T d, g_new^T d, d^T d and, from the
    modified search only, z = y + t s."""

    status: str
    nf_used: int  # trials; each evaluates f and g once
    f_new: float
    alpha: float = 0.0
    x_new: Vector | None = None
    g_new: Vector | None = None
    s: Vector | None = None
    y: Vector | None = None
    mu: float = math.nan
    t: float = math.nan
    z: Vector | None = None
    gd_old: float = math.nan
    gd_new: float = math.nan
    dd: float = math.nan


@dataclass(slots=True)
class TrialPoint:
    """One evaluated trial step along the ray x + alpha d."""

    alpha: float
    f: float
    dphi: float  # directional derivative g(x + alpha d)^T d
    armijo_ok: bool
    curv_ok: bool
    payload: tuple | None = None  # the accepted trial's vectors; a rejected one frees them
    underflow: bool = False


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

    One trial loop keeps the bracket ``lo = (alpha, f, dphi)``, from alpha = 0,
    and ``hi = (alpha, f)``.  Until ``hi`` is set, an Armijo trial whose slope
    is not >= 0 (NaN included) becomes ``lo`` and the step doubles up to
    ``ALPHA_MAX``; any other trial updates the bracket by the zoom rule, and
    the next step is the safeguarded interpolant of ``lo`` and ``hi``; the
    search fails when that interpolant lands on either end.
    """
    if not slope0 < 0.0:
        return None, 0, DEGENERATE_DIRECTION
    if not alpha0 > 0.0:
        raise ValueError(f"initial trial step must be positive, got {alpha0}")

    # f-value comparisons share the Armijo slack: once per-step decreases sink
    # below the ulp of f, value ordering is noise and only the (noise-robust)
    # directional derivative can steer the bracket.
    ftol = ARMIJO_TOL_REL * (1.0 + abs(f0))
    lo, hi = (0.0, f0, slope0), None
    alpha = min(alpha0, ALPHA_MAX)
    trials = 0
    while trials < MAX_TRIALS:
        t = evaluate(alpha)
        trials += 1
        if t.underflow:
            return None, trials, MAX_TRIALS_EXCEEDED
        if t.armijo_ok and t.curv_ok:
            return t, trials, ACCEPTED
        if not t.armijo_ok or t.f >= lo[1] + ftol:
            hi = (t.alpha, t.f)
        elif hi is None and not t.dphi >= 0.0:
            if alpha >= ALPHA_MAX:
                return None, trials, MAX_TRIALS_EXCEEDED
            lo = (t.alpha, t.f, t.dphi)
            alpha = min(2.0 * alpha, ALPHA_MAX)
            continue
        else:
            if hi is None or t.dphi * (hi[0] - lo[0]) >= 0.0:
                hi = lo[:2]  # the slope points away from hi: the old lo becomes hi
            lo = (t.alpha, t.f, t.dphi)
        alpha = _interpolate(*lo, *hi)
        if alpha == lo[0] or alpha == hi[0] or not alpha > 0.0:
            return None, trials, MAX_TRIALS_EXCEEDED
    return None, trials, MAX_TRIALS_EXCEEDED


def _search(oracle, x, f, g, d, params, coefficient, alpha0, gd0, modified):
    # A slope of -inf (g^T d overflowed) puts Armijo's right side at -inf: no
    # trial could pass, so the search ends here like an ascent direction.
    if not -math.inf < gd0 < 0.0:
        return LineSearchOutcome(DEGENERATE_DIRECTION, 0, f)
    dd = dot(d, d)
    C = params.C

    def evaluate(alpha: float) -> TrialPoint:
        s_t = alpha * d
        x_t = x + s_t
        try:
            f_t, g_t = oracle.eval_fg(x_t)
        except EvaluationError:
            return TrialPoint(alpha, math.inf, math.nan, False, False)
        sd = alpha * dd  # s^T d
        s_norm_sq = alpha * sd
        if not s_norm_sq > 0.0:
            return TrialPoint(alpha, f_t, math.nan, False, False, underflow=True)
        dphi = dot(g_t, d)
        curv_lhs, mu_t, t_t = dphi, None, None
        if modified:
            mu_t = 2.0 * (f - f_t) + alpha * (gd0 + dphi)
            t_t = t_coefficient(mu_t, s_norm_sq, coefficient, C)
            curv_lhs += min(t_t, 0.0) * sd
        armijo_ok = armijo_holds(f, gd0, alpha, f_t, params.rho)
        curv_ok = curvature_holds(curv_lhs, gd0, params.sigma)
        kept = (x_t, s_t, g_t, mu_t, t_t) if armijo_ok and curv_ok else None
        return TrialPoint(alpha, f_t, dphi, armijo_ok, curv_ok, payload=kept)

    best, trials, status = bracket_zoom(evaluate, f, gd0, alpha0)
    if status != ACCEPTED:
        return LineSearchOutcome(status, trials, f)
    alpha, f_t, dphi = best.alpha, best.f, best.dphi
    x_t, s, g_t, mu_t, t_t = best.payload
    if not modified:  # a modified trial's operands, for the accepted trial only
        mu_t = 2.0 * (f - f_t) + alpha * (gd0 + dphi)
        t_t = t_coefficient(mu_t, alpha * (alpha * dd), coefficient, C)
    y = g_t - g
    z = z_vector(y, s, t_t) if modified else None
    return LineSearchOutcome(ACCEPTED, trials, f_t, alpha, x_t, g_t, s, y, mu_t, t_t, z, gd0, dphi, dd)


def standard_wolfe(
    oracle: InstrumentedOracle,
    x: Vector,
    f: float,
    g: Vector,
    d: Vector,
    params: WolfeParams,
    coefficient: float,
    alpha0: float,
    gd: float,
) -> LineSearchOutcome:
    """Weak-Wolfe search; the secant bundle, without z, is still computed for
    direction updates.

    ``coefficient`` is the order factor m/(m-2) of t
    (:attr:`specgrad.directions.DirectionParams.coefficient`); ``gd`` is g^T d,
    which the caller has already taken.
    """
    return _search(oracle, x, f, g, d, params, coefficient, alpha0, gd, False)


def modified_wolfe(
    oracle: InstrumentedOracle,
    x: Vector,
    f: float,
    g: Vector,
    d: Vector,
    params: WolfeParams,
    coefficient: float,
    alpha0: float,
    gd: float,
) -> LineSearchOutcome:
    """Wolfe search with the min(t, 0) s correction inside the curvature test.

    Same signature as :func:`standard_wolfe`.
    """
    return _search(oracle, x, f, g, d, params, coefficient, alpha0, gd, True)

