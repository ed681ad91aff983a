"""Reference code that only the tests use.

``make_secant`` builds the secant bundle in vector form from (s, y, mu), and
``secant_step`` puts a given bundle on a step record; the solver builds its
bundle inside the line search from the search's dot products.  The direction
tests take their inputs from them.  ``vector_mu`` is mu in vector form for
any step s, with no rounding gate; the solver takes the slope form
:func:`specgrad.secant.mu` of s = alpha d, and the tests check the two agree.

``m2_coefficient`` is the paper form of the M2 scaling c in v = y + c s; the
solver reads c from the step's t instead, and the tests check the two agree.
It and ``hessian_error`` raise :class:`DegenerateStepError` on a zero step;
the solver never forms one, since its line search ends on a zero |s|^2.

The verification oracles: a problem's analytic ``gradient`` alone,
central differences (``fd_gradient``, ``fd_hessian_action``), the gradient
checker (``gradient_check`` at ``check_points``) and the order-m
curvature-error diagnostic ``hessian_error``.

The vector forms of the direction formulas (``beta_m``, ``theta_tilde``,
``beta_dk``, ``next_direction_<method>``) are written from the paper's
formulas on raw vectors, for any step s, and raise :class:`Degenerate` on a
vanishing denominator themselves.  They share no code with
:mod:`specgrad.directions`, whose ``next_direction`` takes its scalars from
the line search instead, and report beta, theta and the flags in their own
:class:`Diag`; the tests check the two agree.  ``accepted_step`` builds the
search outcome of s = alpha d that ``next_direction`` reads.

``nonconvex_quartic`` is a one-dimensional problem on which the standard
Wolfe search accepts a step that the modified one rejects.  ``log_cosh`` is
a smooth nonquadratic problem with an exact gradient-Lipschitz constant, on
which mu > 0, so the audit's t bounds are tested on a t other than 0.

``violations`` sums every ``*_violations`` tally of an audit report, so a
tally added to :class:`specgrad.solver.AuditReport` is counted without a
change here.
"""

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from specgrad.directions import DirectionParams
from specgrad.linesearch import ACCEPTED, LineSearchOutcome
from specgrad.numkit import Vector, dot, norm_inf
from specgrad.problems import Problem
from specgrad.secant import t_coefficient, z_vector

ScalarField = Callable[[np.ndarray], float]

# Seed for the reproducible perturbed check points used by gradient audits.
CHECK_POINT_SEED = 20240117

# A denominator at most this share of the product of its factors' norms is
# degenerate: the formula that divides by it is undefined.
DEGENERATE_REL = 1e-300

# The paper's spectral bounds, written out here rather than read from
# specgrad.directions, so that the vector forms stay independent of it.
ETA = 1e-3
TAU = 10.0


def secant_step(s, y, mu: float, t: float, z) -> LineSearchOutcome:
    """An accepted step record that carries only the secant bundle (s, y, mu, t, z)."""
    return LineSearchOutcome(ACCEPTED, 1, math.nan, s=s, y=y, mu=mu, t=t, z=z)


def make_secant(s, y, mu_value: float, coefficient: float, C: float) -> LineSearchOutcome:
    t = t_coefficient(mu_value, dot(s, s), coefficient, C)
    return secant_step(s, y, mu_value, t, z_vector(y, s, t))


def accepted_step(g_old, g_new, d, alpha: float, mu: float = 0.0, t: float = 0.0):
    """The record of an accepted step s = alpha d from gradient g_old to g_new:
    the secant bundle with z = y + t s and the search's dot products."""
    s, y = alpha * d, g_new - g_old
    return LineSearchOutcome(
        ACCEPTED, 1, math.nan, alpha, g_new=g_new, s=s, y=y, mu=mu, t=t, z=y + t * s,
        gd_old=float(g_old @ d), gd_new=float(g_new @ d), dd=float(d @ d),
    )


class Degenerate(ArithmeticError):
    """A denominator of a direction formula vanished."""


class DegenerateStepError(ValueError):
    """Zero-length step; secant quantities are undefined."""


def _denominator(u: Vector, v: Vector, name: str) -> float:
    """u^T v, raising :class:`Degenerate` when it is negligible against |u| |v|."""
    value = float(u @ v)
    if abs(value) <= DEGENERATE_REL * np.linalg.norm(u) * np.linalg.norm(v):
        raise Degenerate(f"{name} = {value}")
    return value


def beta_m(g_new: Vector, g_old: Vector, d: Vector, z: Vector) -> tuple[float, bool]:
    """max(beta_L, beta_R); the flag reports whether the beta_R branch won.

    beta_L = g_new^T z / d^T z - |z|^2 g_new^T d / (d^T z)^2,
    beta_R = g_old^T d / |d|^2.
    """
    dz = _denominator(d, z, "d^T z")
    beta_l = float(g_new @ z) / dz - float(z @ z) * float(g_new @ d) / dz**2
    beta_r = float(g_old @ d) / float(d @ d)
    return (beta_l, False) if beta_l >= beta_r else (beta_r, True)


def theta_tilde(g_new: Vector, s: Vector, d: Vector, z: Vector, beta: float) -> float:
    """(s^T g_new + beta d^T z) / g_new^T z."""
    gz = _denominator(g_new, z, "g_new^T z")
    return (float(s @ g_new) + beta * float(d @ z)) / gz


def beta_dk(g_new: Vector, d: Vector, y: Vector) -> float:
    """Dai-Kou: y^T g_new / d^T y - |y|^2 d^T g_new / (d^T y)^2."""
    dy = _denominator(d, y, "d^T y")
    return float(y @ g_new) / dy - float(y @ y) * float(d @ g_new) / dy**2


@dataclass
class Diag:
    """The update's own fields of a direction: beta, theta and the safeguard flags."""

    beta: float = 0.0
    theta: float = 1.0
    truncated_theta: bool = False
    truncated_beta: bool = False
    restart: bool = False


def _restarted(g_new: Vector, diag: Diag) -> tuple[Vector, Diag]:
    diag.beta, diag.theta, diag.restart = 0.0, 1.0, True
    return -g_new, diag


def _spectral_step(g_new, prev_d, beta, theta_raw, diag):
    """-theta g_new + beta d with theta_raw truncated into [1/4 + ETA, TAU]
    (else 1); restarts unless g_new^T d <= -ETA |g_new|^2."""
    in_range = 0.25 + ETA <= theta_raw <= TAU
    diag.theta = theta_raw if in_range else 1.0
    diag.truncated_theta = not in_range
    d = -diag.theta * g_new + beta * prev_d
    if float(g_new @ d) <= -ETA * float(g_new @ g_new):
        return d, diag
    return _restarted(g_new, diag)


def _max_form_direction(g_new, prev_d, prev_g, s, w):
    diag = Diag()
    try:
        diag.beta, diag.truncated_beta = beta_m(g_new, prev_g, prev_d, w)
    except Degenerate:
        return _restarted(g_new, diag)
    try:
        theta_raw = theta_tilde(g_new, s, prev_d, w, diag.beta)
    except Degenerate:
        theta_raw = math.nan
    return _spectral_step(g_new, prev_d, diag.beta, theta_raw, diag)


def next_direction_scgmmwls(
    g_new: Vector,
    prev_d: Vector,
    prev_g: Vector,
    secant: LineSearchOutcome,
) -> tuple[Vector, Diag]:
    return _max_form_direction(g_new, prev_d, prev_g, secant.s, secant.z)


def next_direction_m2(
    g_new: Vector,
    prev_d: Vector,
    prev_g: Vector,
    secant: LineSearchOutcome,
    params: DirectionParams,
) -> tuple[Vector, Diag]:
    s = secant.s
    v = secant.y + m2_coefficient(secant.mu, float(s @ s), params.m) * s
    return _max_form_direction(g_new, prev_d, prev_g, s, v)


def next_direction_dk(g_new: Vector, prev_d: Vector, y: Vector) -> tuple[Vector, Diag]:
    """-g_new + beta_DK d (theta = 1); restarts unless g_new^T d <= -ETA |g_new|^2."""
    diag = Diag()
    try:
        diag.beta = beta_dk(g_new, prev_d, y)
    except Degenerate:
        return _restarted(g_new, diag)
    return _spectral_step(g_new, prev_d, diag.beta, 1.0, diag)


def next_direction_jian(
    g_new: Vector, prev_d: Vector, y: Vector, s: Vector
) -> tuple[Vector, Diag]:
    """beta_DK with theta+ = 1 - (|y|^2 d^T g_new / d^T y - s^T g_new) / y^T g_new."""
    diag = Diag()
    try:
        diag.beta = beta_dk(g_new, prev_d, y)
    except Degenerate:
        return _restarted(g_new, diag)
    dy = float(prev_d @ y)
    try:
        yg = _denominator(y, g_new, "y^T g_new")
        theta_raw = 1.0 - (float(y @ y) * float(prev_d @ g_new) / dy - float(s @ g_new)) / yg
    except Degenerate:
        theta_raw = math.nan
    return _spectral_step(g_new, prev_d, diag.beta, theta_raw, diag)


def nonconvex_quartic() -> Problem:
    """f(x) = x^4/4 - x^3 + x^2/4 from x0 = -1.5, nonconvex on (0.09, 1.91): along
    d = -g, mu is far below 0 and the two Wolfe searches accept different steps."""
    return Problem(
        "nonconvex_quartic",
        lambda x: (float(x[0] ** 4 / 4 - x[0] ** 3 + x[0] ** 2 / 4),
                   np.array([x[0] ** 3 - 3 * x[0] ** 2 + x[0] / 2])),
        np.array([-1.5]),
    )


def violations(audit) -> int:
    """The sum of every ``*_violations`` field of an :class:`AuditReport`."""
    return sum(getattr(audit, f.name) for f in fields(audit) if f.name.endswith("_violations"))


def vector_mu(f_old: float, f_new: float, g_old: Vector, g_new: Vector, s: Vector) -> float:
    """2 (f_old - f_new) + (g_old + g_new)^T s; exactly zero on quadratics."""
    return 2.0 * (f_old - f_new) + dot(g_old + g_new, s)


def _order_factor(m: float) -> float:
    """The paper's m/(m-2), taken as 1 at m = infinity."""
    return 1.0 if math.isinf(m) else m / (m - 2.0)


def m2_coefficient(mu_value: float, s_norm_sq: float, m: float) -> float:
    """(m/(m-2)) max(mu, 0)/|s|^2, the scaling of s in the M2 vector v = y + c s."""
    if not s_norm_sq > 0.0:
        raise DegenerateStepError("zero step in the M2 secant vector")
    if mu_value <= 0.0:
        return 0.0
    return _order_factor(m) * mu_value / s_norm_sq


@dataclass(frozen=True)
class FiniteDifferenceSpec:
    """Central-difference settings; ``h`` perturbs along coordinate axes."""

    h: float = 1e-6

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise ValueError(f"finite-difference step must be positive, got {self.h}")


def gradient(prob: Problem, x: Vector) -> Vector:
    """The analytic gradient of ``prob`` at ``x``, from its fused ``fg``."""
    return prob.fg(x)[1]


def fd_gradient(f: ScalarField, x: Vector, spec: FiniteDifferenceSpec) -> Vector:
    """Central-difference gradient of ``f`` at ``x``: (f(x+h e_i) - f(x-h e_i)) / 2h."""
    h = spec.h
    g = np.empty_like(x)
    xt = x.copy()
    for i in range(x.size):
        xi = x[i]
        xt[i] = xi + h
        fp = f(xt)
        xt[i] = xi - h
        fm = f(xt)
        xt[i] = xi
        g[i] = (fp - fm) / (2.0 * h)
    if not np.all(np.isfinite(g)):
        raise ArithmeticError("non-finite value in finite-difference gradient")
    return g


def fd_hessian_action(f: ScalarField, x: Vector, s: Vector, spec: FiniteDifferenceSpec) -> float:
    """Estimate the curvature s^T H(x) s via (f(x+h s) - 2 f(x) + f(x-h s)) / h^2."""
    if x.shape != s.shape:  # x + h*s would broadcast a length-1 s silently
        raise ValueError(f"vector length mismatch: {x.shape[0]} vs {s.shape[0]}")
    h = spec.h
    val = (f(x + h * s) - 2.0 * f(x) + f(x - h * s)) / (h * h)
    if not np.isfinite(val):
        raise ArithmeticError("non-finite value in finite-difference curvature")
    return float(val)


@dataclass
class GradientCheckReport:
    problem_name: str
    tol: float
    rel_errors: list[float] = field(default_factory=list)

    @property
    def worst(self) -> float:
        return max(self.rel_errors) if self.rel_errors else 0.0

    @property
    def passed(self) -> bool:
        return all(e <= self.tol for e in self.rel_errors)


def check_points(prob: Problem, count: int = 5, seed: int = CHECK_POINT_SEED) -> list[Vector]:
    """Standard start plus ``count`` seeded Gaussian perturbations of it."""
    rng = np.random.default_rng(seed)
    pts = [prob.start.copy()]
    for _ in range(count):
        pts.append(prob.start + 0.1 * rng.standard_normal(prob.dim))
    return pts


def gradient_check(prob: Problem, points: list[Vector], tol: float) -> GradientCheckReport:
    """Compare the analytic gradient against central differences at each point.

    The relative error is ``|g_analytic - g_fd|_inf / (1 + |g_analytic|_inf)``
    with the difference step scaled as ``1e-6 * (1 + |x|_inf)``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    report = GradientCheckReport(prob.name, tol)
    for x in points:
        g_a = gradient(prob, x)
        spec = FiniteDifferenceSpec(h=1e-6 * (1.0 + norm_inf(x)))
        g_fd = fd_gradient(prob.objective, x, spec)
        report.rel_errors.append(norm_inf(g_a - g_fd) / (1.0 + norm_inf(g_a)))
    return report


def hessian_error(prob, x_new: Vector, s: Vector, m: float, fd_step: float = 0.1) -> float:
    """Diagnostic s^T H(x_new) s - s^T z^(m) with H probed by finite differences.

    Uses the raw order-m secant vector (no sign safeguard on mu), with f and g
    taken from the problem's analytic definitions at x_new and x_new - s.  Not
    part of any solver path; it quantifies how well the order-m secant carries
    curvature along s.
    """
    x_old = x_new - s
    f_old, g_old = prob.fg(x_old)
    f_new, g_new = prob.fg(x_new)
    s_norm_sq = dot(s, s)
    if not s_norm_sq > 0.0:
        raise DegenerateStepError("zero step in hessian_error")
    mu_value = vector_mu(f_old, f_new, g_old, g_new, s)
    z = g_new - g_old + (_order_factor(m) * mu_value / s_norm_sq) * s
    curvature = fd_hessian_action(prob.objective, x_new, s, FiniteDifferenceSpec(h=fd_step))
    return curvature - dot(s, z)


def log_cosh(n: int = 50) -> Problem:
    """f = sum log cosh(x_i - c_i), c = linspace(-3, 3, n), from 0.  f'' = sech^2
    peaks at 1 where x = c, so L = 1 is the gradient's exact Lipschitz constant;
    f is not quadratic, so mu > 0 on most steps and t is not 0."""
    c = np.linspace(-3.0, 3.0, n)

    def fg(x):
        u = np.abs(x - c)  # log cosh u = |u| + log(1 + e^{-2|u|}) - log 2, overflow-free
        return float(np.sum(u + np.log1p(np.exp(-2.0 * u)) - math.log(2.0))), np.tanh(x - c)

    return Problem("log_cosh", fg, np.zeros(n), lipschitz_hint=1.0)
