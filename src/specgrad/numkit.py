"""Dense float64 vector kernel.

Vectors are plain 1-D ``numpy.float64`` arrays throughout the package; the
helpers here are the dot product and infinity norm the solvers use.  They
call the ndarray methods, which run the same reductions as ``np.dot`` and
``np.max`` bit for bit without their Python-level dispatch wrappers.
"""

from __future__ import annotations

import numpy as np

Vector = np.ndarray


def dot(u: Vector, v: Vector) -> float:
    """u^T v; ``ndarray.dot`` itself rejects 1-D vectors of unequal length."""
    return float(u.dot(v))


def norm_inf(u: Vector) -> float:
    return float(abs(u).max())
