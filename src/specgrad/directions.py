"""Search-direction strategies: the spectral CG update and its baselines.

Every method builds d_new = -theta g_new + beta d_prev from one secant
vector w = y + c s: z = y + t s (scgmmwls), v = y + c s with c = t if
mu > 0, else 0 (m2), or y (dk, jian; c = 0).  All four take one beta and
one theta formula,

    beta_L  = g_new^T w / d^T w - (w^T w / d^T w)(g_new^T d / d^T w)
    theta~  = (s^T g_new + beta d^T w) / g_new^T w,

and differ only in w and in the safeguards:

* ``scgmmwls``, ``m2``  beta is floored at beta_R = g_old^T d / d^T d, theta~
  is truncated into [1/4 + ETA, TAU] with fallback 1 (:func:`theta_bar`).
* ``jian``              m2 at mu <= 0 without the floor: beta_L at w = y is
  Dai and Kou's beta_DK (at tau = s^T y / |s|^2), and theta~ at that beta is
  Jian's theta+ = 1 - (|y|^2 g_new^T d / d^T y - s^T g_new) / g_new^T y.
* ``dk``                jian with theta = 1.  Its beta gives g_new^T d_new <=
  -3/4 |g_new|^2 for any d^T y != 0 (Dai and Kou, SIAM J. Optim. 23 (2013)
  296-320), so it meets the spectral descent test of the other three.

:func:`next_direction` is the one code path.  It uses s = alpha d and reads
g_new, the secant bundle and the line search's dot products from the
search's :class:`LineSearchOutcome`:

    g_old^T d, g_new^T d, d^T d      from the search
    s^T g_new = alpha g_new^T d
    d^T w     = (g_new^T d - g_old^T d) + c alpha d^T d

so only w^T w, g_new^T w, g_new^T g_new and the final descent test
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
from .secant import v_vector_m2

METHODS = ("scgmmwls", "dk", "jian", "m2")
# The methods whose solver id carries a secant order (``scgmmwls:m=3``).
ORDER_METHODS = ("scgmmwls", "m2")

# The paper's spectral bounds: theta is kept in [1/4 + ETA, TAU], and a
# spectral direction must satisfy g^T d <= -ETA |g|^2.
ETA = 1e-3
TAU = 10.0

# Denominators smaller than this (relative to the factor norms) are treated as
# degenerate rather than divided through.
_DEGENERATE_REL = 1e-300


@dataclass(frozen=True)
class DirectionParams:
    """One solver: the direction method and the secant order m (>= 3 or
    infinity; only scgmmwls and m2 take one, so dk and jian keep the default)."""

    method: str = "scgmmwls"
    m: float = 3

    def __post_init__(self) -> None:
        if not (self.m == math.inf or (self.m >= 3 and float(self.m).is_integer())):
            raise ValueError(f"order m must be an integer >= 3 or infinity, got {self.m}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'; known: {', '.join(METHODS)}")
        if self.method not in ORDER_METHODS and self.m != DirectionParams.m:
            raise ValueError(f"{self.method} takes no order m, got {self.m}")

    @property
    def coefficient(self) -> float:
        """m/(m-2), 1 at m = infinity: the factor of a positive mu in the secant scaling t."""
        return 1.0 if math.isinf(self.m) else self.m / (self.m - 2.0)

    @property
    def label(self) -> str:
        """The solver id: ``dk``, ``jian`` or ``<method>:m=<order>``."""
        return f"{self.method}:m={self.m:.17g}" if self.method in ORDER_METHODS else self.method

    @classmethod
    def parse(cls, text: str) -> DirectionParams:
        """Parse ids like ``dk``, ``jian``, ``scgmmwls:m=3`` or ``m2:m=inf`` (m
        defaults to 3)."""
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
            m = float(value)
            if math.isfinite(m) and m == int(m):
                m = int(m)
        return cls(method=name, m=m)


@dataclass(slots=True)
class IterationRecord:
    """One accepted step and the direction it led to: the step's f, alpha, mu
    and t, then the update's beta, theta, safeguard flags and gd = g_new^T d_new,
    the next search's slope (-g_new^T g_new on a restart)."""

    f: float
    alpha: float
    mu: float
    t: float
    beta: float = 0.0
    theta: float = 1.0
    truncated_theta: bool = False
    truncated_beta: bool = False
    restart: bool = False
    gd: float = math.nan


def theta_bar(theta_t: float) -> float:
    """Identity on [1/4 + ETA, TAU]; everything else (non-finite included) maps to 1."""
    if 0.25 + ETA <= theta_t <= TAU:
        return theta_t
    return 1.0


def _restart(g_new: Vector, rec: IterationRecord, gg: float) -> tuple[Vector, IterationRecord]:
    """-g_new, whose slope is -g_new^T g_new: dot(g, -g) is -dot(g, g) bit for bit."""
    rec.beta, rec.theta, rec.restart, rec.gd = 0.0, 1.0, True, -gg
    return -g_new, rec


def next_direction(
    prev_d: Vector, step: LineSearchOutcome, params: DirectionParams
) -> tuple[Vector, IterationRecord]:
    """The direction after the accepted step s = alpha d, with at most four dot
    products, and the step's trace row; ``rec.gd`` is g_new^T d_new, the next slope."""
    method = params.method
    if method == "scgmmwls":
        w, c = step.z, step.t
    elif method == "m2":
        c = step.t if step.mu > 0.0 else 0.0
        w = v_vector_m2(step.y, step.s, c)
    else:
        w, c = step.y, 0.0
    g_new, gd_old, gd_new, dd = step.g_new, step.gd_old, step.gd_new, step.dd
    dw = (gd_new - gd_old) + c * (step.alpha * dd)
    rec = IterationRecord(step.f_new, step.alpha, step.mu, step.t)
    ww = dot(w, w)
    if abs(dw) <= _DEGENERATE_REL * math.sqrt(dd) * math.sqrt(ww):
        return _restart(g_new, rec, dot(g_new, g_new))
    gw = dot(g_new, w)
    beta = gw / dw - (ww / dw) * (gd_new / dw)  # beta_L; beta_DK at w = y
    if method in ORDER_METHODS and not beta >= (beta_r := gd_old / dd):
        beta, rec.truncated_beta = beta_r, True
    rec.beta = beta
    gg = dot(g_new, g_new)
    theta = 1.0  # dk; -1.0 * g_new is -g_new bit for bit
    if method != "dk":
        degenerate = abs(gw) <= _DEGENERATE_REL * math.sqrt(gg) * math.sqrt(ww)
        theta_t = math.nan if degenerate else (step.alpha * gd_new + beta * dw) / gw  # theta~
        theta = theta_bar(theta_t)
        rec.theta = theta
        rec.truncated_theta = theta != theta_t
    d = -theta * g_new + beta * prev_d
    gd_next = dot(g_new, d)
    if gd_next <= -ETA * gg:
        rec.gd = gd_next
        return d, rec
    return _restart(g_new, rec, gg)
