"""One Wolfe line search, standard or modified by a bound flag, over one bracketing engine.

Both searches accept a step iff the Armijo condition

    f(x + a d) <= f(x) + rho a g^T d

holds together with a curvature condition: the standard form

    g(x + a d)^T d >= sigma g^T d

or the modified form that adds min(t, 0) s to the trial gradient, where t is
the safeguarded secant scaling evaluated at the trial point.  Acceptance has a
slack on each side, 1e-12 (1 + |f|) on Armijo (absolute below |f| = 1) and
1e-12 |g^T d| on curvature; without it the Armijo test turns into comparing
evaluation noise once the per-step decrease drops below the roundoff floor of
f, and searches stall just short of tight gradient tolerances.  The solver's
audit re-checks each accepted step from the raw vectors with the same
:func:`armijo_holds` and :func:`curvature_holds`, so accepted steps re-verify
exactly.

A trial point with non-finite objective or gradient is treated as a rejected
(Armijo-fail) trial so the bracket can recover; it still charges the
evaluation counters.  The engine expands the trial step until a bracket
forms, to the zero of the secant of phi' through the last two points, at
least 1.5 times the step and at most ``ALPHA_MAX`` (doubling where phi' did
not rise), then shrinks it by safeguarded quadratic interpolation with
bisection fallback.
Every trial evaluates f and g together, one evaluation (nf).

Trials are scalar-only: the engine, :func:`bracket_zoom`, sees a trial as
the tuple (f, dphi, armijo_ok, curv_ok), and only the search itself keeps
the accepted trial's vectors.  The step is s = alpha d, so with g^T d (taken
once by the caller) and d^T d (taken once per search), one trial costs s, the
point x + s, one f+g evaluation and two dot products, g_t^T d in the search
and g_t^T g_t in the oracle's finiteness test.  The scalars follow:

    mu    = secant.mu(f, f_t, alpha, g^T d, g_t^T d),  0 within f's rounding
    s^T d = alpha d^T d,        |s|^2 = alpha (alpha d^T d)
    t     = t_coefficient(mu, |s|^2),  modified curvature term min(t, 0) s^T d

A trial whose |s|^2 underflows to 0 ends the search, so t always has a
nonzero step.  Both searches take mu and t on every trial; only the modified
one adds min(t, 0) s^T d to g_t^T d in its curvature test.  A trial
builds no g + g_t and no y.  The accepted trial keeps its s; y = g_t - g is
built once, and z only by the modified search, whose direction (scgmmwls)
and audit read it.
:class:`LineSearchOutcome` is the search's record of a step: it carries the
point, the secant bundle and the search's dot products, so the direction
update need not take them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .numkit import Vector, dot
from .problems import EvaluationError
from .secant import mu, t_coefficient, z_vector

ACCEPTED = "accepted"
MAX_TRIALS_EXCEEDED = "max_trials_exceeded"
DEGENERATE_DIRECTION = "degenerate_direction"

# Acceptance tolerances, scaled by 1 + |f| and by |g^T d|; the search and
# the solver's audit share armijo_holds/curvature_holds bit for bit.
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
    """The (rho, sigma) pair of the search, the only copy a configuration holds;
    the defaults are the paper's scgmmwls pair."""

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
    """Find a trial step whose Armijo and curvature flags both hold.

    ``evaluate(alpha)`` returns ``(f, dphi, armijo_ok, curv_ok)`` of the trial
    x + alpha d, with dphi = g(x + alpha d)^T d, or ``None`` when the step
    underflowed to zero length; ``f0`` and ``slope0`` describe the ray at
    alpha = 0.  It needs ``slope0 < 0`` and ``alpha0 > 0``, which ``_search``
    establishes and this loop does not re-check.  Returns ``(alpha,
    trials_used, status)``, with alpha ``None`` unless the status is ``ACCEPTED``.

    One trial loop keeps the bracket ``lo = (alpha, f, dphi)``, from alpha = 0,
    and ``hi = (alpha, f)``.  Until ``hi`` is set, an Armijo trial whose slope
    is not >= 0 (NaN included) becomes ``lo``, and the next step, capped at
    ``ALPHA_MAX``, is the zero of the secant of phi' through the old ``lo``
    and this trial, at least 1.5 alpha; where phi' did not rise (a NaN
    included) the step doubles.  Any other trial updates the bracket by
    the zoom rule, and the next step is the safeguarded interpolant of ``lo``
    and ``hi``; the search fails when that interpolant lands on either end.
    """
    # f-value comparisons share the Armijo slack: once per-step decreases sink
    # below the ulp of f, value ordering is noise and only the (noise-robust)
    # directional derivative can steer the bracket.
    ftol = ARMIJO_TOL_REL * (1.0 + abs(f0))
    lo, hi = (0.0, f0, slope0), None
    alpha = min(alpha0, ALPHA_MAX)
    for trials in range(1, MAX_TRIALS + 1):
        trial = evaluate(alpha)
        if trial is None:
            return None, trials, MAX_TRIALS_EXCEEDED
        f, dphi, armijo_ok, curv_ok = trial
        if armijo_ok and curv_ok:
            return alpha, trials, ACCEPTED
        if not armijo_ok or f >= lo[1] + ftol:
            hi = (alpha, f)
        elif hi is None and not dphi >= 0.0:
            if alpha >= ALPHA_MAX:
                return None, trials, MAX_TRIALS_EXCEEDED
            step = 2.0 * alpha
            if dphi > lo[2]:  # phi' rose from lo: the zero of its secant, at least 1.5 alpha
                step = max(alpha - dphi * (alpha - lo[0]) / (dphi - lo[2]), 1.5 * alpha)
            lo = (alpha, f, dphi)
            alpha = min(step, ALPHA_MAX)
            continue
        else:
            if hi is None or dphi * (hi[0] - lo[0]) >= 0.0:
                hi = lo[:2]  # the slope points away from hi: the old lo becomes hi
            lo = (alpha, f, dphi)
        alpha = _interpolate(*lo, *hi)
        if alpha == lo[0] or alpha == hi[0] or not alpha > 0.0:
            return None, trials, MAX_TRIALS_EXCEEDED
    return None, MAX_TRIALS, MAX_TRIALS_EXCEEDED


def initial_alpha(prev: LineSearchOutcome, gd: float, dd: float) -> float:
    """First trial after the accepted step ``prev``: Shanno-Phua's alpha_prev g_prev^T d_prev
    / g^T d, cut to its geometric mean with the Barzilai-Borwein step -g^T d q / d^T d,
    q = s^T s / s^T y, when s^T y > 0 (Barzilai & Borwein, IMA J. Numer. Anal. 8 (1988))."""
    val = prev.alpha * (prev.gd_old / gd)
    if not 0.0 < val < math.inf:  # NaN included
        val = 1.0
    curv = prev.gd_new - prev.gd_old  # s^T y / alpha
    if curv > 0.0 and dd > 0.0:  # d^T d is 0 only when it underflowed
        mean = math.sqrt(val * (-gd * (prev.alpha * prev.dd / curv) / dd))
        val = mean if mean < val else val  # an inf or NaN mean keeps val
    return val if val > 1e-10 else 1e-10


def _search(modified, oracle, x, f, g, d, params, coefficient, alpha0, gd, prev=None):
    """Wolfe search along d from x; ``modified`` adds min(t, 0) s^T d to the curvature test
    and builds z.  ``coefficient`` is m/(m-2) of t (:attr:`DirectionParams.coefficient`), ``gd``
    the caller's g^T d; the first trial is ``alpha0``, or :func:`initial_alpha` of ``prev``."""
    # A slope of -inf (g^T d overflowed) puts Armijo's right side at -inf: no
    # trial could pass, so the search ends here like an ascent direction.
    if not -math.inf < gd < 0.0:
        return LineSearchOutcome(DEGENERATE_DIRECTION, 0, f)
    dd = dot(d, d)
    if prev is not None:
        alpha0 = initial_alpha(prev, gd, dd)
    C = params.C
    accepted = None  # (x_t, s_t, g_t, f_t, dphi, mu, t) of the accepted trial only

    def evaluate(alpha: float) -> tuple[float, float, bool, bool] | None:
        nonlocal accepted
        s_t = alpha * d
        x_t = x + s_t
        try:
            f_t, g_t = oracle.eval_fg(x_t)
        except EvaluationError:
            return math.inf, math.nan, False, False
        sd = alpha * dd  # s^T d
        s_norm_sq = alpha * sd
        if not s_norm_sq > 0.0:
            return None
        dphi = dot(g_t, d)
        mu_t = mu(f, f_t, alpha, gd, dphi)
        t_t = t_coefficient(mu_t, s_norm_sq, coefficient, C)
        armijo_ok = armijo_holds(f, gd, alpha, f_t, params.rho)
        curv_ok = curvature_holds(dphi + min(t_t, 0.0) * sd if modified else dphi, gd, params.sigma)
        if armijo_ok and curv_ok:
            accepted = x_t, s_t, g_t, f_t, dphi, mu_t, t_t
        return f_t, dphi, armijo_ok, curv_ok

    alpha, trials, status = bracket_zoom(evaluate, f, gd, alpha0)
    if status != ACCEPTED:
        return LineSearchOutcome(status, trials, f)
    x_t, s, g_t, f_t, dphi, mu_t, t_t = accepted
    y = g_t - g
    z = z_vector(y, s, t_t) if modified else None
    return LineSearchOutcome(ACCEPTED, trials, f_t, alpha, x_t, g_t, s, y, mu_t, t_t, z, gd, dphi, dd)


# A partial adds no Python frame; a flag bound by keyword would merge a dict per call.
standard_wolfe = partial(_search, False)
modified_wolfe = partial(_search, True)
