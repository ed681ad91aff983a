"""Small statistics shared by the benchmark and its spread report."""

from __future__ import annotations

import statistics


def ratio(num: float, den: float) -> float:
    """``num / den`` with a zero base reported as 0 rather than raising."""
    return num / den if den else 0.0


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method); a single value has no spread.
    """
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return ratio(q3 - q1, abs(median(values)))
