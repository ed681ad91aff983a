"""Modified secant quantities shared by the line search and direction updates.

A step produces the bundle (s, y, mu, t); a modified Wolfe step adds
z = y + t*s, which plays the role of the gradient difference in the
curvature-aware formulas of scgmmwls.  The scalar mu folds function-value
information into the secant relation; it vanishes identically on
quadratics.  The scaling t is safeguarded: a positive mu is amplified by
m/(m-2) for the chosen expansion order m (order "infinity" uses coefficient
1), a non-positive mu is damped by the line-search constant
C = (sigma - rho) / (1 - 2 rho + sigma) so the curvature condition survives.
(rho, sigma) is the Wolfe search's own pair, so C is a property of
:class:`specgrad.linesearch.WolfeParams`; m is the solver's, and m/(m-2) is
:attr:`specgrad.directions.DirectionParams.coefficient`.

A step of the solvers is s = alpha d, so the line search's dot products
determine every scalar of the bundle that involves s:
|s|^2 = alpha (alpha d^T d), s^T d = alpha d^T d, s^T g_new = alpha g_new^T d.
:func:`mu` takes 2 (f_old - f_new) + (g_old + g_new)^T s in that slope form
and reads a value within f's rounding as 0.  The search returns the bundle
and those dot products on one record, :class:`specgrad.linesearch.LineSearchOutcome`.
The M2 vector v = y + c s has c = (m/(m-2)) max(mu, 0)/|s|^2, which is t
when mu > 0, so the direction update takes c from the step's t.
"""

from __future__ import annotations

from .numkit import Vector, dot  # noqa: F401  (dot: perfbench's tracer patches this name)

# Machine epsilon; |mu| <= MU_NOISE (|f_old| + |f_new|) is f's rounding (Hager & Zhang 2005).
EPS = 2.220446049250313e-16
MU_NOISE = 4.0 * EPS


def mu(f_old: float, f_new: float, alpha: float, gd_old: float, gd_new: float) -> float:
    """mu of the step s = alpha d in slope form, 2 (f_old - f_new) + alpha (g_old^T d +
    g_new^T d); zero on quadratics up to rounding, and read as 0 within f's rounding."""
    value = 2.0 * (f_old - f_new) + alpha * (gd_old + gd_new)
    return 0.0 if abs(value) <= MU_NOISE * (abs(f_old) + abs(f_new)) else value


def t_coefficient(mu_value: float, s_norm_sq: float, coefficient: float, C: float) -> float:
    """Safeguarded scaling of s in z = y + t*s, branching on the sign of mu.

    ``coefficient`` is m/(m-2) (:attr:`DirectionParams.coefficient`), ``C`` the
    line-search constant (:attr:`specgrad.linesearch.WolfeParams.C`).  The
    caller guarantees ``s_norm_sq > 0``.
    """
    if mu_value > 0.0:
        return coefficient * mu_value / s_norm_sq
    return C * mu_value / s_norm_sq


def z_vector(y: Vector, s: Vector, t: float) -> Vector:
    return y + t * s


def v_vector_m2(y: Vector, s: Vector, c: float) -> Vector:
    """The M2 vector v = y + c s, c = t for mu > 0 and 0 otherwise; y itself when c = 0."""
    return y + c * s if c > 0.0 else y
