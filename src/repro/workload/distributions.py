"""Empirical flow-size distributions (paper §4.1 workloads).

The paper draws background flow sizes and interarrivals from three public
datacenter traces: Facebook's *cache follower* and *data mining* (Roy et
al., SIGCOMM 2015 / VL2) and Google's *web search* (the DCTCP workload).
The raw traces are not redistributable, so the CDFs below are digitized
from the published figures and summary statistics — e.g. cache follower
is mice-dominated with 50 % of flows under 24 KB (quoted directly in the
paper, §4.2), web search carries most of its bytes in multi-MB flows, and
data mining is extremely heavy-tailed.

Sampling is inverse-transform with log-linear interpolation between
breakpoints, which suits the orders-of-magnitude spans of these
distributions.  ``truncate_at`` caps the tail so that scaled-down
benchmark runs are not dominated by a single transfer longer than the
simulated interval (documented substitution; the full CDFs are the
default).
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

KB = 1_000
MB = 1_000_000


class EmpiricalCDF:
    """Piecewise log-linear empirical distribution over flow sizes."""

    def __init__(self, points: Sequence[Tuple[float, float]],
                 name: str = "") -> None:
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        values = [value for value, _ in points]
        probs = [prob for _, prob in points]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"{name}: CDF values must strictly increase")
        if any(b < a for a, b in zip(probs, probs[1:])):
            raise ValueError(f"{name}: CDF probabilities must not decrease")
        if probs[0] != 0.0 or probs[-1] != 1.0:
            raise ValueError(f"{name}: CDF must span 0.0 .. 1.0")
        if values[0] <= 0:
            raise ValueError(f"{name}: sizes must be positive")
        self.name = name
        self._values = values
        self._probs = probs

    # -- sampling ------------------------------------------------------------------

    def quantile(self, u: float) -> float:
        """Inverse CDF with log-linear interpolation."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("quantile argument must be in [0, 1]")
        index = bisect.bisect_left(self._probs, u)
        if index == 0:
            return self._values[0]
        lo_p, hi_p = self._probs[index - 1], self._probs[index]
        lo_v, hi_v = self._values[index - 1], self._values[index]
        if hi_p == lo_p:
            return lo_v
        frac = (u - lo_p) / (hi_p - lo_p)
        if frac <= 0.0:
            return lo_v
        if frac >= 1.0:
            return hi_v
        value = math.exp(math.log(lo_v) + frac
                         * (math.log(hi_v) - math.log(lo_v)))
        return min(max(value, lo_v), hi_v)

    def sample(self, rng: random.Random) -> int:
        return max(1, round(self.quantile(rng.random())))

    def mean(self) -> float:
        """Mean of the interpolated distribution (numeric quadrature).

        Every traffic generator of every run asks for it, so it is
        computed once per process per set of breakpoints.
        """
        return _quadrature_mean(tuple(zip(self._values, self._probs)))

    def truncated(self, cap: int) -> "EmpiricalCDF":
        """Distribution with all mass above ``cap`` collapsed onto ``cap``."""
        if cap <= self._values[0]:
            raise ValueError("truncation cap below the distribution minimum")
        points: List[Tuple[float, float]] = []
        for value, prob in zip(self._values, self._probs):
            if value >= cap:
                break
            points.append((value, prob))
        points.append((cap, 1.0))
        return EmpiricalCDF(points, name=f"{self.name}<=cap{cap}")


@functools.lru_cache(maxsize=64)
def _quadrature_mean(points: Tuple[Tuple[float, float], ...]) -> float:
    cdf = EmpiricalCDF(points)
    steps = 4096
    total = 0.0
    for i in range(steps):
        total += cdf.quantile((i + 0.5) / steps)
    return total / steps


def web_search() -> EmpiricalCDF:
    """Google web search (DCTCP workload): bytes dominated by large flows."""
    return EmpiricalCDF([
        (1 * KB, 0.00),
        (3 * KB, 0.10),
        (10 * KB, 0.30),
        (30 * KB, 0.40),
        (100 * KB, 0.53),
        (300 * KB, 0.60),
        (1 * MB, 0.70),
        (3 * MB, 0.80),
        (10 * MB, 0.90),
        (30 * MB, 1.00),
    ], name="web_search")


def data_mining() -> EmpiricalCDF:
    """Facebook/VL2 data mining: extremely heavy-tailed."""
    return EmpiricalCDF([
        (100, 0.00),
        (300, 0.30),
        (1 * KB, 0.50),
        (3 * KB, 0.60),
        (10 * KB, 0.70),
        (30 * KB, 0.77),
        (100 * KB, 0.83),
        (1 * MB, 0.90),
        (10 * MB, 0.95),
        (100 * MB, 0.99),
        (1000 * MB, 1.00),
    ], name="data_mining")


def cache_follower() -> EmpiricalCDF:
    """Facebook cache follower: mice-dominated, 50 % of flows < 24 KB."""
    return EmpiricalCDF([
        (500, 0.00),
        (1 * KB, 0.12),
        (2 * KB, 0.22),
        (5 * KB, 0.33),
        (10 * KB, 0.42),
        (24 * KB, 0.50),
        (50 * KB, 0.61),
        (100 * KB, 0.70),
        (256 * KB, 0.80),
        (512 * KB, 0.88),
        (1 * MB, 0.94),
        (5 * MB, 0.99),
        (10 * MB, 1.00),
    ], name="cache_follower")


DISTRIBUTIONS: Dict[str, callable] = {
    "web_search": web_search,
    "data_mining": data_mining,
    "cache_follower": cache_follower,
}


def get_distribution(name: str,
                     truncate_at: Optional[int] = None) -> EmpiricalCDF:
    try:
        dist = DISTRIBUTIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown distribution {name!r}; "
            f"choose from {sorted(DISTRIBUTIONS)}") from None
    if truncate_at is not None:
        dist = dist.truncated(truncate_at)
    return dist
