"""Duty-cycle burst generator: the same bytes per period, burstier.

network_tester's ``bursting.py`` sweeps exactly this dimension: hold
the per-period byte budget fixed and squeeze it into an ever smaller
*on* fraction of each period, so mean offered load stays constant
while instantaneous load during the on-window grows as ``1/duty``.
At ``duty=1.0`` this is plain Poisson background traffic; at
``duty=0.1`` the identical load arrives in 10× bursts with dead air
between them — the regime where buffer headroom, deflection, and PFC
pause behavior separate.

Implementation: arrivals are a Poisson process on the *on-time* axis
with mean gap ``duty × (SECOND / rate)``, so each period carries the
same expected flow count regardless of duty.  Cumulative on-time maps
to wall-clock by unrolling whole on-windows onto whole periods::

    periods, rem = divmod(t_on, on_ns)
    wall = periods * period_ns + rem

Both sides of the mapping are integer nanoseconds; the mapping is
strictly monotone, so events schedule in order.  Sweeps should exclude
the first and last periods via the workload's warmup/cooldown window
(network_tester uses 10 periods of each).
"""

from __future__ import annotations

import random
from typing import Callable

from repro.sim.engine import Engine
from repro.sim.units import SECOND
from repro.workload.background import poisson_rate_for_load
from repro.workload.distributions import EmpiricalCDF
from repro.workload.matrix import pick_dst, pick_src

#: open_flow(src, dst, size, is_incast, query_id) -> None
FlowOpener = Callable[..., None]


class DutyCycleTraffic:
    """Poisson flows gated to the on-window of a duty-cycled period."""

    def __init__(self, engine: Engine, open_flow: FlowOpener, n_hosts: int,
                 host_rate_bps: int, load: float, duty: float,
                 period_ns: int, sizes: EmpiricalCDF, rng: random.Random,
                 until_ns: int) -> None:
        if n_hosts < 2:
            raise ValueError("duty-cycle traffic needs at least two hosts")
        if not 0.0 < duty <= 1.0:
            raise ValueError("duty must be in (0, 1]")
        if period_ns <= 0:
            raise ValueError("period must be positive")
        self.engine = engine
        self.open_flow = open_flow
        self.n_hosts = n_hosts
        self.duty = duty
        self.period_ns = period_ns
        self.sizes = sizes
        self.rng = rng
        self.until_ns = until_ns
        self.flows_generated = 0
        self.on_ns = max(1, round(period_ns * duty))
        rate_per_s = poisson_rate_for_load(load, n_hosts, host_rate_bps,
                                           sizes.mean())
        # Mean inter-arrival gap on the on-time axis: duty × the uniform
        # gap, keeping expected flows per period independent of duty.
        self._mean_gap_ns = max(1, round(duty * SECOND / rate_per_s)) \
            if rate_per_s > 0 else None
        # Cumulative on-time of the next arrival (int ns).
        self._t_on = 0

    def start(self) -> None:
        if self._mean_gap_ns is not None:
            self._schedule_next()

    def _schedule_next(self) -> None:
        # Rate parameter in 1/ns; the drawn gap is rounded to int ns below.
        gap = self.rng.expovariate(1.0 / self._mean_gap_ns)  # noqa: VR003
        self._t_on += max(1, round(gap))
        periods, rem = divmod(self._t_on, self.on_ns)
        when = periods * self.period_ns + rem
        if when <= self.until_ns:
            self.engine.schedule_at(when, self._launch_flow)

    def _launch_flow(self) -> None:
        src = pick_src(self.rng, self.n_hosts)
        dst = pick_dst(self.rng, self.n_hosts, src)
        size = self.sizes.sample(self.rng)
        self.open_flow(src, dst, size, is_incast=False, query_id=None)
        self.flows_generated += 1
        self._schedule_next()
