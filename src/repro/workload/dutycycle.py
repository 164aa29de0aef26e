"""Duty-cycle burst generator: the same bytes per period, burstier.

network_tester's ``bursting.py`` sweeps exactly this dimension: hold
the per-period byte budget fixed and squeeze it into an ever smaller
*on* fraction of each period, so mean offered load stays constant
while instantaneous load during the on-window grows as ``1/duty``.
At ``duty=1.0`` this is plain Poisson background traffic; at
``duty=0.1`` the identical load arrives in 10× bursts with dead air
between them — the regime where buffer headroom, deflection, and PFC
pause behavior separate.

Arrivals run on the on-time axis of
:class:`~repro.workload.arrivals.PoissonArrivals`, so each period
carries the same expected flow count regardless of duty.  Sweeps should exclude the first and last periods
via the workload's warmup/cooldown window (network_tester uses 10
periods of each).
"""

from __future__ import annotations

import random

from repro.sim.engine import Engine
from repro.workload.arrivals import (
    FlowOpener,
    PoissonArrivals,
    arrivals_per_s,
)
from repro.workload.distributions import EmpiricalCDF
from repro.workload.matrix import pick_dst, pick_src


class DutyCycleTraffic(PoissonArrivals):
    """Poisson flows gated to the on-window of a duty-cycled period."""

    def __init__(self, engine: Engine, open_flow: FlowOpener, n_hosts: int,
                 host_rate_bps: int, load: float, duty: float,
                 period_ns: int, sizes: EmpiricalCDF, rng: random.Random,
                 until_ns: int) -> None:
        super().__init__(engine, rng, until_ns,
                         arrivals_per_s(load, n_hosts, host_rate_bps,
                                        sizes.mean()),
                         duty, period_ns)
        self.open_flow = open_flow
        self.n_hosts = n_hosts
        self.sizes = sizes
        self.flows_generated = 0

    def _arrive(self) -> None:
        src = pick_src(self.rng, self.n_hosts)
        dst = pick_dst(self.rng, self.n_hosts, src)
        size = self.sizes.sample(self.rng)
        self.open_flow(src, dst, size, is_incast=False, query_id=None)
        self.flows_generated += 1
        self._schedule_next()
