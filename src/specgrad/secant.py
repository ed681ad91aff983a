"""Modified secant quantities shared by the line search and direction updates.

A step produces the bundle (s, y, mu, t, z) where z = y + t*s plays the role
of the gradient difference in the curvature-aware formulas.  The scalar mu
folds function-value information into the secant relation; it vanishes
identically on quadratics.  The scaling t is safeguarded: a positive mu is
amplified by m/(m-2) for the chosen expansion order m (order "infinity" uses
coefficient 1), a non-positive mu is damped by the line-search constant
C = (sigma - rho) / (1 - 2 rho + sigma) so the curvature condition survives.

A step of the solvers is s = alpha d, so the line search's dot products
(:class:`StepSlopes`) determine every scalar of the bundle that involves s:
|s|^2 = alpha (alpha d^T d), s^T d = alpha d^T d, s^T g_new = alpha g_new^T d.
:func:`mu` keeps the vector form for arbitrary s; it is the reference the
line search's slope form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .numkit import FiniteDifferenceSpec, Vector, dot, fd_hessian_action

ORDER_INFINITY = math.inf


class DegenerateStepError(ValueError):
    """Zero-length step; secant quantities are undefined."""


def order_coefficient(m: float) -> float:
    """m/(m-2), extended with 1 at m = infinity."""
    if math.isinf(m):
        return 1.0
    return m / (m - 2.0)


@dataclass(frozen=True)
class SecantParams:
    """Expansion order m (>= 3 or infinity) plus the line-search pair defining C."""

    m: float = 3
    rho: float = 0.18
    sigma: float = 0.2

    def __post_init__(self) -> None:
        if not (math.isinf(self.m) or (self.m >= 3 and float(self.m).is_integer())):
            raise ValueError(f"order m must be an integer >= 3 or infinity, got {self.m}")
        if not 0.0 < self.rho < self.sigma < 1.0:
            raise ValueError(f"need 0 < rho < sigma < 1, got rho={self.rho}, sigma={self.sigma}")

    @property
    def C(self) -> float:
        return (self.sigma - self.rho) / (1.0 - 2.0 * self.rho + self.sigma)

    @property
    def coefficient(self) -> float:
        return order_coefficient(self.m)


@dataclass(frozen=True)
class SecantData:
    """Per-step bundle: s = x_new - x_old, y = g_new - g_old, z = y + t*s."""

    s: Vector
    y: Vector
    mu: float
    t: float
    z: Vector


class StepSlopes(NamedTuple):
    """The dot products of an accepted step s = alpha d, taken by the line search."""

    alpha: float
    gd_old: float  # g_old^T d
    gd_new: float  # g_new^T d
    dd: float  # d^T d

    @property
    def sd(self) -> float:
        """s^T d, the expression the modified curvature test multiplies by min(t, 0)."""
        return self.alpha * self.dd

    @property
    def s_norm_sq(self) -> float:
        return self.alpha * (self.alpha * self.dd)


def mu(f_old: float, f_new: float, g_old: Vector, g_new: Vector, s: Vector) -> float:
    """2 (f_old - f_new) + (g_old + g_new)^T s; exactly zero on quadratics."""
    return 2.0 * (f_old - f_new) + dot(g_old + g_new, s)


def t_coefficient(mu_value: float, s_norm_sq: float, params: SecantParams) -> float:
    """Safeguarded scaling of s in z = y + t*s, branching on the sign of mu."""
    if not s_norm_sq > 0.0:
        raise DegenerateStepError(f"step norm squared must be positive, got {s_norm_sq}")
    if mu_value > 0.0:
        return params.coefficient * mu_value / s_norm_sq
    return params.C * mu_value / s_norm_sq


def z_vector(y: Vector, s: Vector, t: float) -> Vector:
    return y + t * s


def m2_coefficient(mu_value: float, s_norm_sq: float, m: float) -> float:
    """(m/(m-2)) max(mu, 0)/|s|^2, the scaling of s in the M2 vector v = y + c s."""
    if not s_norm_sq > 0.0:
        raise DegenerateStepError("zero step in the M2 secant vector")
    if mu_value <= 0.0:
        return 0.0
    return order_coefficient(m) * mu_value / s_norm_sq


def v_vector_m2(
    y: Vector, s: Vector, mu_value: float, m: float, s_norm_sq: float | None = None
) -> Vector:
    """Truncated variant y + m2_coefficient * s used by the M2 baseline.

    ``s_norm_sq`` defaults to s^T s; the solver passes the line search's value.
    """
    if s_norm_sq is None:
        s_norm_sq = dot(s, s)
    c = m2_coefficient(mu_value, s_norm_sq, m)
    return y + c * s if mu_value > 0.0 else y.copy()


def make_secant(s: Vector, y: Vector, mu_value: float, params: SecantParams) -> SecantData:
    t = t_coefficient(mu_value, dot(s, s), params)
    return SecantData(s=s, y=y, mu=mu_value, t=t, z=z_vector(y, s, t))


def hessian_error(prob, x_new: Vector, s: Vector, m: float, fd_step: float = 0.1) -> float:
    """Diagnostic s^T H(x_new) s - s^T z^(m) with H probed by finite differences.

    Uses the raw order-m secant vector (no sign safeguard on mu), with f and g
    taken from the problem's analytic definitions at x_new and x_new - s.  Not
    part of any solver path; it quantifies how well the order-m secant carries
    curvature along s.
    """
    x_old = x_new - s
    f_old = prob.objective(x_old)
    f_new = prob.objective(x_new)
    g_old = prob.gradient(x_old)
    g_new = prob.gradient(x_new)
    s_norm_sq = dot(s, s)
    if not s_norm_sq > 0.0:
        raise DegenerateStepError("zero step in hessian_error")
    mu_value = mu(f_old, f_new, g_old, g_new, s)
    z = g_new - g_old + (order_coefficient(m) * mu_value / s_norm_sq) * s
    curvature = fd_hessian_action(prob.objective, x_new, s, FiniteDifferenceSpec(h=fd_step))
    return curvature - dot(s, z)
