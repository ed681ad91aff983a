"""Search-direction strategies: the spectral CG update and its baselines.

All strategies produce d_new = -theta * g_new + beta * d_prev:

* ``scgmmwls``  beta is the truncated max(beta_L, beta_R) computed from the
  modified secant vector z; theta is the quasi-Newton-motivated quotient,
  truncated into [1/4 + eta, tau] with fallback 1.
* ``m2``        identical formulas with the max(mu, 0)-truncated vector v.
* ``dk``        theta = 1 and the curvature-corrected beta built from y.
* ``jian``      the same beta as dk plus its own truncated spectral theta.

Degenerate denominators and numerically non-descent results never escape:
they restart the direction at -g_new and are flagged in the diagnostics.

Each formula is written once, over scalars.  Let w be the secant vector the
method uses: z = y + t s (scgmmwls), v = y + c s with c = t if mu > 0, else
0 (m2), or y (dk, jian; c = 0).  The vector forms, which take every scalar
with ``dot`` from their vectors for any s, are test reference code
(``tests/reference.py``).  The solver's :func:`next_direction` uses
s = alpha d and reads g_new, the secant bundle and the line search's dot
products from the step record (:class:`LineSearchOutcome`):

    g_old^T d, g_new^T d, d^T d      from the search
    s^T g_new = alpha g_new^T d
    d^T w     = (g_new^T d - g_old^T d) + c alpha d^T d

so only g_new^T g_new, g_new^T w, w^T w and the final descent test
g_new^T d_new remain dot products, and the norms in the degeneracy tests are
square roots of them.  d^T w does not cancel: the curvature condition of
each search bounds it below by (1 - sigma)|g_old^T d| (up to the 1e-12
acceptance tolerance), as the d^T z audit checks from the raw vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linesearch import LineSearchOutcome
from .numkit import Vector, dot
from .secant import order_coefficient, v_vector_m2

METHODS = ("scgmmwls", "dk", "jian", "m2")
# The methods whose solver id carries a secant order (``scgmmwls:m=3``).
ORDER_METHODS = ("scgmmwls", "m2")

# Denominators smaller than this (relative to the factor norms) are treated as
# degenerate rather than divided through.
_DEGENERATE_REL = 1e-300


class DegenerateCurvatureError(ArithmeticError):
    """d^T z vanished; the conjugate parameter is undefined."""


class DegenerateSpectralError(ArithmeticError):
    """g_new^T z vanished; the spectral quotient is undefined."""


@dataclass(frozen=True)
class DirectionParams:
    """One solver: the direction method, its spectral bounds eta and tau, and
    the secant order m (>= 3 or infinity; only scgmmwls and m2 read it)."""

    method: str = "scgmmwls"
    eta: float = 1e-3
    tau: float = 10.0
    m: float = 3

    def __post_init__(self) -> None:
        if not (self.m == math.inf or (self.m >= 3 and float(self.m).is_integer())):
            raise ValueError(f"order m must be an integer >= 3 or infinity, got {self.m}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'; known: {', '.join(METHODS)}")
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")
        if not 0.25 + self.eta < self.tau:
            raise ValueError(f"need 1/4 + eta < tau, got eta={self.eta}, tau={self.tau}")

    @property
    def coefficient(self) -> float:
        """m/(m-2), the factor of a positive mu in the secant scaling t."""
        return order_coefficient(self.m)

    @property
    def label(self) -> str:
        """The solver id: ``dk``, ``jian`` or ``<method>:m=<order>``."""
        return f"{self.method}:m={self.m:g}" if self.method in ORDER_METHODS else self.method

    @classmethod
    def parse(cls, text: str, **overrides) -> DirectionParams:
        """Parse ids like ``dk``, ``jian``, ``scgmmwls:m=3`` or ``m2:m=inf`` (m
        defaults to 3); ``overrides`` set the other fields."""
        name, _, opts = text.strip().partition(":")
        name = name.strip().lower()
        m = 3
        if opts:
            key, _, value = opts.partition("=")
            if key.strip() != "m":
                raise ValueError(f"unknown solver option '{opts}' in '{text}'")
            if name in METHODS and name not in ORDER_METHODS:
                valid = " and ".join(ORDER_METHODS)
                raise ValueError(f"an order suffix is only valid on {valid}, got '{text}'")
            m = math.inf if value.strip() in ("inf", "infinity") else float(value)
            if math.isfinite(m) and m == int(m):
                m = int(m)
        return cls(method=name, m=m, **overrides)


@dataclass
class DirectionDiag:
    beta: float = 0.0
    theta: float = 1.0
    truncated_theta: bool = False
    truncated_beta: bool = False
    restart: bool = False


def _beta_m(gd_old, gd_new, dd, dw, gw, ww) -> tuple[float, bool]:
    if abs(dw) <= _DEGENERATE_REL * math.sqrt(dd) * math.sqrt(ww):
        raise DegenerateCurvatureError(f"d^T z = {dw}")
    beta_l = gw / dw - (ww / dw) * (gd_new / dw)
    beta_r = gd_old / dd
    if beta_l >= beta_r:
        return beta_l, False
    return beta_r, True


def _theta_tilde(sg, dw, gg, gw, ww, beta) -> float:
    if abs(gw) <= _DEGENERATE_REL * math.sqrt(gg) * math.sqrt(ww):
        raise DegenerateSpectralError(f"g_new^T z = {gw}")
    return (sg + beta * dw) / gw


def theta_bar(theta_t: float, params: DirectionParams) -> float:
    """Identity on [1/4 + eta, tau]; everything else (non-finite included) maps to 1."""
    if 0.25 + params.eta <= theta_t <= params.tau:
        return theta_t
    return 1.0


def _restart(g_new: Vector, diag: DirectionDiag) -> tuple[Vector, DirectionDiag]:
    diag.beta = 0.0
    diag.theta = 1.0
    diag.restart = True
    return -g_new.copy(), diag


def _spectral_direction(g_new, prev_d, w, gd_old, gd_new, dd, sg, dw, params):
    diag = DirectionDiag()
    gg, gw, ww = dot(g_new, g_new), dot(g_new, w), dot(w, w)
    try:
        beta, diag.truncated_beta = _beta_m(gd_old, gd_new, dd, dw, gw, ww)
    except DegenerateCurvatureError:
        return _restart(g_new, diag)
    diag.beta = beta
    try:
        theta_t = _theta_tilde(sg, dw, gg, gw, ww, beta)
    except DegenerateSpectralError:
        theta_t = math.nan
    theta = theta_bar(theta_t, params)
    diag.theta = theta
    diag.truncated_theta = theta != theta_t
    d = -theta * g_new + beta * prev_d
    if dot(g_new, d) <= -params.eta * gg:
        return d, diag
    return _restart(g_new, diag)


def _dk_direction(g_new, prev_d, y, gd_new, dd, sg, dy, params, spectral):
    """beta_DK from y; theta = 1 for dk, jian's truncated spectral theta otherwise."""
    diag = DirectionDiag()
    yy = dot(y, y)
    if abs(dy) <= _DEGENERATE_REL * math.sqrt(dd) * math.sqrt(yy):
        return _restart(g_new, diag)
    yg = dot(y, g_new)
    beta = yg / dy - yy * gd_new / (dy * dy)
    diag.beta = beta
    if not spectral:
        d = -g_new + beta * prev_d
        # Plain descent only; dk carries no eta-margin guarantee.
        if dot(g_new, d) >= 0.0 and dot(g_new, g_new) > 0.0:
            return _restart(g_new, diag)
        return d, diag
    gg = dot(g_new, g_new)
    if abs(yg) <= _DEGENERATE_REL * math.sqrt(yy) * math.sqrt(gg):
        theta_plus = math.nan
    else:
        theta_plus = 1.0 - (yy * gd_new / dy - sg) / yg
    theta = theta_bar(theta_plus, params)
    diag.theta = theta
    diag.truncated_theta = theta != theta_plus
    d = -theta * g_new + beta * prev_d
    if dot(g_new, d) <= -params.eta * gg:
        return d, diag
    return _restart(g_new, diag)


def next_direction(
    prev_d: Vector, step: LineSearchOutcome, params: DirectionParams
) -> tuple[Vector, DirectionDiag]:
    """The configured strategy for the accepted step s = alpha d of a line search.

    Gives the same direction as the matching vector form (``tests/reference.py``)
    up to rounding, with at most four dot products.
    """
    method = params.method
    if method == "scgmmwls":
        w, c = step.z, step.t
    elif method == "m2":
        c = step.t if step.mu > 0.0 else 0.0
        w = v_vector_m2(step.y, step.s, c)
    else:
        w, c = step.y, 0.0
    g_new, gd_old, gd_new, dd = step.g_new, step.gd_old, step.gd_new, step.dd
    sg, dw = step.alpha * gd_new, (gd_new - gd_old) + c * step.sd
    if method in ORDER_METHODS:
        return _spectral_direction(g_new, prev_d, w, gd_old, gd_new, dd, sg, dw, params)
    return _dk_direction(g_new, prev_d, w, gd_new, dd, sg, dw, params, spectral=method == "jian")
