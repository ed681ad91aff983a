"""Dense float64 vector kernel.

Vectors are plain 1-D ``numpy.float64`` arrays throughout the package; the
helpers here are the dot product and infinity norm the solvers use.  They
run the reductions of ``np.dot`` and ``np.max`` bit for bit through C methods
only (``abs(u).max()`` passes through ``numpy/_core/_methods.py``), and
``argmax`` finds the first NaN, so a NaN still propagates.
"""

from __future__ import annotations

import numpy as np

Vector = np.ndarray


def dot(u: Vector, v: Vector) -> float:
    """u^T v; ``ndarray.dot`` itself rejects 1-D vectors of unequal length."""
    return float(u.dot(v))


def norm_inf(u: Vector) -> float:
    a = abs(u)
    return float(a[a.argmax()])
