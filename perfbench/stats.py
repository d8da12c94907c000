"""Order statistics used to summarise repeated measurements."""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by the method of statistics.quantiles(n=4).

    A single value is its own quartiles.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)

