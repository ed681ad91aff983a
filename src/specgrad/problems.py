"""Smooth unconstrained test problems with analytic gradients.

Twelve classic families from the unconstrained-optimization test-function
collections, each with its standard starting point and an exact gradient.
Each family is one vectorized kernel ``fg(x) -> (f, g)`` computing the terms
f and g share once, since every solver evaluation needs both at one point;
``Problem.objective`` derives f alone from it.  The only ``**`` allowed is
a square: numpy sends ``x**2`` to its square loop but any other exponent to
libm ``pow``, about 73 ns per element against about 2 ns for a product
(n = 10000, numpy 2.4.6 on a 2-core x86 machine: ``q**4`` 730 us,
``(q*q)*(q*q)`` 16 us).  With ``pow``, ``nondquar`` alone costs about 3 ms
per evaluation there, against 0.2-0.4 ms for the other families.  Higher
powers are therefore multiplication chains, built from the square where a
kernel needs both, and a test rejects any other exponent in this module.
At n = 100 call overhead outweighs arithmetic, so reductions call the ufunc
and allocations take the length (``np.add.reduce(a)`` 1.0 us, ``a.sum()``
1.1 us, ``np.sum(a)`` 2.9 us; ``np.zeros(n)`` 0.26 us, ``np.zeros_like(x)``
1.4 us), and a test rejects numpy's Python-level wrappers and reduction
methods here and in the solver modules.  A scalar square is a product too
(``xn * xn``): numpy's scalar ``**`` calls libm ``pow``, which misses the
correctly rounded ``x * x`` in the last bit for about 1 value in 1300.

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

from .numkit import Vector


class EvaluationError(RuntimeError):
    """Objective or gradient produced a non-finite value."""


@dataclass(frozen=True)
class Problem:
    """A test problem: ``fg(x)`` returns f and its gradient at x; ``dim`` is the start's size."""

    name: str
    fg: Callable[[Vector], tuple[float, Vector]]
    start: Vector
    lipschitz_hint: float | None = field(default=None, kw_only=True)

    @property
    def dim(self) -> int:
        return self.start.size

    def objective(self, x: Vector) -> float:
        return self.fg(x)[0]


def _arwhead(n: int) -> Problem:
    def fg(x):
        u, xn = x[:-1], x[-1]
        t = u**2 + xn * xn
        g = np.empty(n)
        g[:-1] = 4.0 * u * t - 4.0
        g[-1] = 4.0 * xn * np.add.reduce(t)
        return float(np.add.reduce(t * t - 4.0 * u + 3.0)), g

    return Problem("arwhead", fg, np.ones(n))


def _ext_rosenbrock(n: int) -> Problem:
    def fg(x):
        u, v = x[0::2], x[1::2]
        r, w = v - u * u, 1.0 - u
        g = np.empty(n)
        g[0::2] = -400.0 * u * r - 2.0 * w
        g[1::2] = 200.0 * r
        return float(np.add.reduce(100.0 * r**2 + w**2)), g

    start = np.ones(n)
    start[0::2] = -1.2
    return Problem("ext_rosenbrock", fg, start)


def _ext_white_holst(n: int) -> Problem:
    def fg(x):
        u, v = x[0::2], x[1::2]
        uu = u * u
        r, w = v - uu * u, 1.0 - u
        g = np.empty(n)
        g[0::2] = -600.0 * uu * r - 2.0 * w
        g[1::2] = 200.0 * r
        return float(np.add.reduce(100.0 * r**2 + w**2)), g

    start = np.ones(n)
    start[0::2] = -1.2
    return Problem("ext_white_holst", fg, start)


def _ext_beale(n: int) -> Problem:
    def fg(x):
        u, v = x[0::2], x[1::2]
        vv = v * v
        w1, w2, w3 = 1.0 - v, 1.0 - vv, 1.0 - vv * v
        a = 1.5 - u * w1
        b = 2.25 - u * w2
        c = 2.625 - u * w3
        g = np.empty(n)
        g[0::2] = -2.0 * a * w1 - 2.0 * b * w2 - 2.0 * c * w3
        g[1::2] = 2.0 * a * u + 4.0 * b * u * v + 6.0 * c * u * vv
        return float(np.add.reduce(a * a + b * b + c * c)), g

    start = np.ones(n)
    start[1::2] = 0.8
    return Problem("ext_beale", fg, start)


def _diagonal1(n: int) -> Problem:
    idx = np.arange(1.0, n + 1.0)

    def fg(x):
        e = np.exp(x)
        return float(np.add.reduce(e - idx * x)), e - idx

    return Problem("diagonal1", fg, np.full(n, 1.0 / n))


def _raydan1(n: int) -> Problem:
    w = np.arange(1.0, n + 1.0) / 10.0

    def fg(x):
        e = np.exp(x)
        return float(np.add.reduce(w * (e - x))), w * (e - 1.0)

    return Problem("raydan1", fg, np.ones(n))


def _eg2(n: int) -> Problem:
    def fg(x):
        u, xn = x[:-1], x[-1]
        arg = np.empty(n)  # the n - 1 sine arguments, then x_n^2
        arg[:-1] = x[0] + u**2 - 1.0
        arg[-1] = xn * xn
        c, s = np.cos(arg), np.sin(arg)
        g = np.zeros(n)
        g[:-1] = 2.0 * u * c[:-1]
        g[0] += np.add.reduce(c[:-1])
        g[-1] += xn * c[-1]
        return float(np.add.reduce(s[:-1]) + 0.5 * s[-1]), g

    return Problem("eg2", fg, np.ones(n))


def _engval1(n: int) -> Problem:
    def fg(x):
        u, v = x[:-1], x[1:]
        t = u**2 + v**2
        g = np.zeros(n)
        g[:-1] += 4.0 * u * t - 4.0
        g[1:] += 4.0 * v * t
        return float(np.add.reduce(t * t - 4.0 * u + 3.0)), g

    return Problem("engval1", fg, np.full(n, 2.0))


def _fletchcr(n: int) -> Problem:
    def fg(x):
        u = x[:-1]
        r = x[1:] - u + 1.0 - u**2
        g = np.zeros(n)
        g[:-1] += 200.0 * r * (-1.0 - 2.0 * u)
        g[1:] += 200.0 * r
        return float(100.0 * np.add.reduce(r * r)), g

    return Problem("fletchcr", fg, np.zeros(n))


def _nondquar(n: int) -> Problem:
    def fg(x):
        q = x[: n - 2] + x[1 : n - 1] + x[-1]
        qq = q * q
        q3 = 4.0 * (qq * q)
        head, tail = x[0] - x[1], x[-2] + x[-1]
        g = np.zeros(n)
        lo, hi = g[: n - 2], g[1 : n - 1]  # views: += writes g without a setitem
        lo += q3
        hi += q3
        g[-1] += np.add.reduce(q3)
        g[0] += 2.0 * head
        g[1] -= 2.0 * head
        g[-2] += 2.0 * tail
        g[-1] += 2.0 * tail
        return float(head * head + tail * tail + np.add.reduce(qq * qq)), g

    start = np.ones(n)
    start[1::2] = -1.0
    return Problem("nondquar", fg, start)


def _ext_himmelblau(n: int) -> Problem:
    def fg(x):
        u, v = x[0::2], x[1::2]
        a = u * u + v - 11.0
        b = u + v * v - 7.0
        g = np.empty(n)
        g[0::2] = 4.0 * u * a + 2.0 * b
        g[1::2] = 2.0 * a + 4.0 * v * b
        return float(np.add.reduce(a * a + b * b)), g

    return Problem("ext_himmelblau", fg, np.ones(n))


def _qf1(n: int) -> Problem:
    idx = np.arange(1.0, n + 1.0)

    def fg(x):
        g = idx * x
        return float(0.5 * np.add.reduce(g * x)), g

    # Hessian is diag(1..n), so the gradient Lipschitz constant is exactly n.
    return Problem("qf1", fg, np.ones(n), lipschitz_hint=float(n))


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

    One oracle per (solver, problem) run; ``eval_fg`` makes one fused ``fg``
    call and charges ``nf`` once, so a run's NG is its NF. Non-finite results
    raise :class:`EvaluationError` after the charge, so failed trials still
    show up in NF/NG; :func:`specgrad.solver.minimize` mutes the warnings.
    The gradient test is g^T g, entrywise only when that is not finite: finite
    entries whose squares overflow pass, and warn outside ``minimize``.
    """

    def __init__(self, prob: Problem):
        self.problem = prob
        self.nf = 0

    def eval_fg(self, x: Vector) -> tuple[float, Vector]:
        self.nf += 1
        val, grad = self.problem.fg(x)
        if not math.isfinite(val):
            raise EvaluationError(f"objective of '{self.problem.name}' is non-finite")
        if not math.isfinite(grad.dot(grad)) and not np.logical_and.reduce(np.isfinite(grad)):
            raise EvaluationError(f"gradient of '{self.problem.name}' is non-finite")
        return val, grad

