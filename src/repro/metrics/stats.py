"""Small statistics helpers used by the metrics collector and benchmarks.

The censored forms take the completed values plus each unfinished
item's lower bound (``horizon - start``): the item took at least that
long.  They return ``(value, depends)``, where ``depends`` says whether
raising the lower bounds could change the value; the true statistic is
then only known to be ``>= value``, and a printer shows ``≥ x``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; NaN for an empty input (plots show a gap)."""
    total = 0.0
    count = 0
    for value in values:
        total += value
        count += 1
    return total / count if count else math.nan


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (same convention as numpy default).

    ``pct`` is in [0, 100].  NaN for an empty input.
    """
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    low, high, frac = _rank(len(ordered), pct)
    value = ordered[low] * (1 - frac) + ordered[high] * frac
    # Float interpolation may overshoot by one ulp; stay in range.
    return min(max(value, ordered[low]), ordered[high])


def _rank(n: int, pct: float) -> Tuple[int, int, float]:
    """The two positions of a sorted ``n``-list that the ``pct``
    percentile interpolates between, and the weight of the higher."""
    rank = (pct / 100) * (n - 1)
    low = int(rank)
    return low, min(low + 1, n - 1), rank - low


def censored_mean(completed: Sequence[float],
                  bounds: Sequence[float]) -> Tuple[float, bool]:
    """:func:`mean` with unfinished items entered at their lower bounds."""
    return mean([*completed, *bounds]), bool(bounds)


def censored_percentile(completed: Sequence[float], bounds: Sequence[float],
                        pct: float) -> Tuple[float, bool]:
    """:func:`percentile` with unfinished items entered at their lower
    bounds."""
    population = sorted([*completed, *bounds])
    value = percentile(population, pct)
    if not bounds:
        return value, False
    low, high, frac = _rank(len(population), pct)
    # Raising every bound past every value leaves the completed values,
    # sorted, in front: the value moves iff a position it reads changes.
    done = sorted(completed)
    read = (low, high) if frac else (low,)
    return value, any(position >= len(done)
                      or done[position] != population[position]
                      for position in read)


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, fraction <= value) points."""
    ordered = sorted(values)
    n = len(ordered)
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]
