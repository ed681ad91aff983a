"""Smooth unconstrained test problems with analytic gradients.

Twelve classic families from the unconstrained-optimization test-function
collections, each with its standard starting point and an exact gradient.
Each family is one vectorized kernel ``fg(x) -> (f, g)`` computing the terms
f and g share once, since every solver evaluation needs both at one point;
``Problem.objective``/``gradient`` derive from it for the off-path callers
(gradient checker, finite differences).  The only ``**`` allowed is a
square: numpy sends ``x**2`` to its square loop but any other exponent to
libm ``pow``, about 73 ns per element against about 2 ns for a product
(n = 10000, numpy 2.4.6 on a 2-core x86 machine: ``q**4`` 730 us,
``(q*q)*(q*q)`` 16 us).  With ``pow``, ``nondquar`` alone costs about 3 ms
per evaluation there, against 0.2-0.4 ms for the other families.  Higher
powers are therefore multiplication chains, built from the square where a
kernel needs both, and a test rejects any other exponent in this module.

Families (standard starts in parentheses):

* ``arwhead``         f = sum_{i<n} [(x_i^2 + x_n^2)^2 - 4 x_i + 3]           (ones)
* ``ext_rosenbrock``  f = sum 100 (x_{2i} - x_{2i-1}^2)^2 + (1 - x_{2i-1})^2  (-1.2, 1, ...)
* ``ext_white_holst`` f = sum 100 (x_{2i} - x_{2i-1}^3)^2 + (1 - x_{2i-1})^2  (-1.2, 1, ...)
* ``ext_beale``       paired Beale terms                                      (1, 0.8, ...)
* ``diagonal1``       f = sum exp(x_i) - i x_i                                (1/n, ...)
* ``raydan1``         f = sum (i/10) (exp(x_i) - x_i)                         (ones)
* ``eg2``             f = sum_{i<n} sin(x_1 + x_i^2 - 1) + sin(x_n^2)/2       (ones)
* ``engval1``         f = sum_{i<n} [(x_i^2 + x_{i+1}^2)^2 - 4 x_i + 3]       (2, 2, ...)
* ``fletchcr``        f = sum 100 (x_{i+1} - x_i + 1 - x_i^2)^2               (zeros)
* ``nondquar``        quartic chain + two quadratic end terms                 (1, -1, ...)
* ``ext_himmelblau``  paired Himmelblau terms                                 (ones)
* ``qf1``             f = (1/2) sum i x_i^2, strictly convex quadratic        (ones)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numkit import FiniteDifferenceSpec, Vector, fd_gradient, norm_inf

# Seed for the reproducible perturbed check points used by gradient audits.
CHECK_POINT_SEED = 20240117


class EvaluationError(RuntimeError):
    """Objective or gradient produced a non-finite value."""

    def __init__(self, problem_name: str, x: Vector, what: str):
        super().__init__(f"{what} of '{problem_name}' is non-finite")
        self.problem_name = problem_name
        self.x = x


@dataclass(frozen=True)
class Problem:
    """A test problem: ``fg(x)`` returns the objective and its gradient at x."""

    name: str
    dim: int
    fg: Callable[[Vector], tuple[float, Vector]]
    start: Vector
    lipschitz_hint: float | None = None

    def objective(self, x: Vector) -> float:
        return self.fg(x)[0]

    def gradient(self, x: Vector) -> Vector:
        return self.fg(x)[1]


def _arwhead(n: int) -> Problem:
    def fg(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        g = np.empty_like(x)
        g[:-1] = 4.0 * x[:-1] * t - 4.0
        g[-1] = 4.0 * x[-1] * np.sum(t)
        return float(np.sum(t * t - 4.0 * x[:-1] + 3.0)), g

    return Problem("arwhead", n, fg, np.ones(n))


def _ext_rosenbrock(n: int) -> Problem:
    def fg(x):
        u, v = x[0::2], x[1::2]
        r, w = v - u * u, 1.0 - u
        g = np.empty_like(x)
        g[0::2] = -400.0 * u * r - 2.0 * w
        g[1::2] = 200.0 * r
        return float(np.sum(100.0 * r**2 + w**2)), g

    start = np.ones(n)
    start[0::2] = -1.2
    return Problem("ext_rosenbrock", n, fg, start)


def _ext_white_holst(n: int) -> Problem:
    def fg(x):
        u, v = x[0::2], x[1::2]
        uu = u * u
        r, w = v - uu * u, 1.0 - u
        g = np.empty_like(x)
        g[0::2] = -600.0 * uu * r - 2.0 * w
        g[1::2] = 200.0 * r
        return float(np.sum(100.0 * r**2 + w**2)), g

    start = np.ones(n)
    start[0::2] = -1.2
    return Problem("ext_white_holst", n, fg, start)


def _ext_beale(n: int) -> Problem:
    def fg(x):
        u, v = x[0::2], x[1::2]
        vv = v * v
        w1, w2, w3 = 1.0 - v, 1.0 - vv, 1.0 - vv * v
        a = 1.5 - u * w1
        b = 2.25 - u * w2
        c = 2.625 - u * w3
        g = np.empty_like(x)
        g[0::2] = -2.0 * a * w1 - 2.0 * b * w2 - 2.0 * c * w3
        g[1::2] = 2.0 * a * u + 4.0 * b * u * v + 6.0 * c * u * vv
        return float(np.sum(a * a + b * b + c * c)), g

    start = np.ones(n)
    start[1::2] = 0.8
    return Problem("ext_beale", n, fg, start)


def _diagonal1(n: int) -> Problem:
    idx = np.arange(1.0, n + 1.0)

    def fg(x):
        e = np.exp(x)
        return float(np.sum(e - idx * x)), e - idx

    return Problem("diagonal1", n, fg, np.full(n, 1.0 / n))


def _raydan1(n: int) -> Problem:
    w = np.arange(1.0, n + 1.0) / 10.0

    def fg(x):
        e = np.exp(x)
        return float(np.sum(w * (e - x))), w * (e - 1.0)

    return Problem("raydan1", n, fg, np.ones(n))


def _eg2(n: int) -> Problem:
    def fg(x):
        arg = x[0] + x[:-1] ** 2 - 1.0
        last = x[-1] ** 2
        c = np.cos(arg)
        g = np.zeros_like(x)
        g[: n - 1] = 2.0 * x[: n - 1] * c
        g[0] += np.sum(c)
        g[-1] += x[-1] * np.cos(last)
        return float(np.sum(np.sin(arg)) + 0.5 * np.sin(last)), g

    return Problem("eg2", n, fg, np.ones(n))


def _engval1(n: int) -> Problem:
    def fg(x):
        t = x[:-1] ** 2 + x[1:] ** 2
        g = np.zeros_like(x)
        g[:-1] += 4.0 * x[:-1] * t - 4.0
        g[1:] += 4.0 * x[1:] * t
        return float(np.sum(t * t - 4.0 * x[:-1] + 3.0)), g

    return Problem("engval1", n, fg, np.full(n, 2.0))


def _fletchcr(n: int) -> Problem:
    def fg(x):
        r = x[1:] - x[:-1] + 1.0 - x[:-1] ** 2
        g = np.zeros_like(x)
        g[:-1] += 200.0 * r * (-1.0 - 2.0 * x[:-1])
        g[1:] += 200.0 * r
        return float(100.0 * np.sum(r * r)), g

    return Problem("fletchcr", n, fg, np.zeros(n))


def _nondquar(n: int) -> Problem:
    def fg(x):
        q = x[: n - 2] + x[1 : n - 1] + x[-1]
        qq = q * q
        q3 = 4.0 * (qq * q)
        head, tail = x[0] - x[1], x[-2] + x[-1]
        g = np.zeros_like(x)
        g[: n - 2] += q3
        g[1 : n - 1] += q3
        g[-1] += np.sum(q3)
        g[0] += 2.0 * head
        g[1] -= 2.0 * head
        g[-2] += 2.0 * tail
        g[-1] += 2.0 * tail
        return float(head**2 + tail**2 + np.sum(qq * qq)), g

    start = np.ones(n)
    start[1::2] = -1.0
    return Problem("nondquar", n, fg, start)


def _ext_himmelblau(n: int) -> Problem:
    def fg(x):
        u, v = x[0::2], x[1::2]
        a = u * u + v - 11.0
        b = u + v * v - 7.0
        g = np.empty_like(x)
        g[0::2] = 4.0 * u * a + 2.0 * b
        g[1::2] = 2.0 * a + 4.0 * v * b
        return float(np.sum(a * a + b * b)), g

    return Problem("ext_himmelblau", n, fg, np.ones(n))


def _qf1(n: int) -> Problem:
    idx = np.arange(1.0, n + 1.0)

    def fg(x):
        g = idx * x
        return float(0.5 * np.sum(g * x)), g

    # Hessian is diag(1..n), so the gradient Lipschitz constant is exactly n.
    return Problem("qf1", n, fg, np.ones(n), lipschitz_hint=float(n))


_BUILDERS: dict[str, Callable[[int], Problem]] = {
    "arwhead": _arwhead,
    "ext_rosenbrock": _ext_rosenbrock,
    "ext_white_holst": _ext_white_holst,
    "ext_beale": _ext_beale,
    "diagonal1": _diagonal1,
    "raydan1": _raydan1,
    "eg2": _eg2,
    "engval1": _engval1,
    "fletchcr": _fletchcr,
    "nondquar": _nondquar,
    "ext_himmelblau": _ext_himmelblau,
    "qf1": _qf1,
}

_EVEN_DIM = {"ext_rosenbrock", "ext_white_holst", "ext_beale", "ext_himmelblau"}


def family_names() -> list[str]:
    return list(_BUILDERS)


def problem(name: str, dim: int) -> Problem:
    """Instantiate one family at a given dimension.

    Raises ``KeyError`` for unknown names and ``ValueError`` for dimensions the
    family does not support.
    """
    key = name.lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown problem '{name}'; known: {', '.join(_BUILDERS)}")
    if dim < 2:
        raise ValueError(f"problem '{key}' needs dimension >= 2, got {dim}")
    if key in _EVEN_DIM and dim % 2 != 0:
        raise ValueError(f"problem '{key}' needs an even dimension, got {dim}")
    return _BUILDERS[key](dim)


class InstrumentedOracle:
    """Counts every objective/gradient evaluation issued for one run.

    One oracle per (solver, problem) run; ``eval_fg`` makes one ``fg`` call and
    charges one of each counter. Non-finite results raise
    :class:`EvaluationError` after the counters were charged, so failed trials
    still show up in NF/NG; :func:`specgrad.solver.minimize` mutes the warnings.
    """

    def __init__(self, prob: Problem):
        self.problem = prob
        self.nf = 0
        self.ng = 0

    def eval_fg(self, x: Vector) -> tuple[float, Vector]:
        self.nf += 1
        self.ng += 1
        val, grad = self.problem.fg(x)
        if not math.isfinite(val):
            raise EvaluationError(self.problem.name, x, "objective")
        if not np.isfinite(grad).all():
            raise EvaluationError(self.problem.name, x, "gradient")
        return val, grad


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
        g_a = prob.gradient(x)
        spec = FiniteDifferenceSpec(h=1e-6 * (1.0 + norm_inf(x)))
        g_fd = fd_gradient(prob.objective, x, spec)
        report.rel_errors.append(norm_inf(g_a - g_fd) / (1.0 + norm_inf(g_a)))
    return report
