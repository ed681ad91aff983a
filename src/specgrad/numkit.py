"""Dense float64 vector kernel and finite-difference oracles.

Vectors are plain 1-D ``numpy.float64`` arrays throughout the package; the
helpers here are the dot product and infinity norm the solvers use, plus
central-difference oracles used to verify analytic gradients and curvature
values in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Vector = np.ndarray
ScalarField = Callable[[np.ndarray], float]


def dot(u: Vector, v: Vector) -> float:
    """u^T v; ``np.dot`` itself rejects 1-D vectors of unequal length."""
    return float(np.dot(u, v))


def norm_inf(u: Vector) -> float:
    return float(np.max(np.abs(u)))


@dataclass(frozen=True)
class FiniteDifferenceSpec:
    """Central-difference settings; ``h`` perturbs along coordinate axes."""

    h: float = 1e-6

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise ValueError(f"finite-difference step must be positive, got {self.h}")


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
