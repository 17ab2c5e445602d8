"""Summary statistics shared by the benchmark and its spread check.

Every timing the benchmark reports is a median with its sample count;
spreads are the inter-quartile distance as a share of the median, the
same statistic the regression gate applies to ten seeded runs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Median, quartiles and sample count of one metric."""

    median: float
    q1: float
    q3: float
    n: int

    @property
    def spread(self) -> float:
        """``(q3 - q1) / median``; 0 when the median is 0."""
        if self.median == 0:
            return 0.0
        return (self.q3 - self.q1) / abs(self.median)


def quartiles(values: Sequence[float]) -> tuple:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values: Sequence[float]) -> Summary:
    """Summary of a non-empty sample."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    values = [float(value) for value in values]
    q1, q3 = quartiles(values)
    return Summary(statistics.median(values), q1, q3, len(values))


def regressed(before: float, after: float, bound: float, better: str) -> bool:
    """Whether ``after`` is worse than ``before`` by more than ``bound``
    (a share of ``before``).  ``better`` is ``"lower"`` or ``"higher"``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    limit = abs(before) * bound
    if better == "lower":
        return after - before > limit
    return before - after > limit
