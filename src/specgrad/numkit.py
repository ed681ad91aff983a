"""Dense float64 vector kernel.

Vectors are plain 1-D ``numpy.float64`` arrays throughout the package; the
helpers here are the dot product and infinity norm the solvers use.
"""

from __future__ import annotations

import numpy as np

Vector = np.ndarray


def dot(u: Vector, v: Vector) -> float:
    """u^T v; ``np.dot`` itself rejects 1-D vectors of unequal length."""
    return float(np.dot(u, v))


def norm_inf(u: Vector) -> float:
    return float(np.max(np.abs(u)))
