"""Poisson arrivals and the load convention every generator shares.

Offered load is a fraction of the aggregate host access bandwidth (the
convention of the paper and of the pFabric/Homa line of simulators): a
load of ``L`` makes each host *send*, on average, ``L × host_rate`` bits
per second.  :func:`arrivals_per_s` turns a load into an arrival rate
given what one arrival carries; :class:`PoissonArrivals` is the clock
every generator runs on: incast queries, coflows and duty-cycle bursts,
which at ``duty=1.0`` are the background flows.

Arrivals form a Poisson process on the *on-time* axis of a duty-cycled
period, with mean gap ``duty × (SECOND / rate)`` so each period carries
the same expected count whatever the duty.  Cumulative on-time maps to
wall-clock by unrolling whole on-windows onto whole periods::

    periods, rem = divmod(t_on, on_ns)
    wall = periods * period_ns + rem

Both sides are integer nanoseconds and the map is strictly monotone, so
events schedule in order.  At ``duty=1.0`` the on-window is the whole
period and the map is the identity: plain Poisson arrivals.

:class:`DutyCycleTraffic` lives here because at ``duty=1.0`` it is the
background generator nearly every run starts, while the incast and
coflow generators load only for a run whose config names them.  It
sweeps network_tester's ``bursting.py`` dimension: hold the per-period
byte budget fixed and squeeze it into an ever smaller *on* fraction of
each period, so mean offered load stays constant while instantaneous
load during the on-window grows as ``1/duty`` (at ``duty=0.1`` the
identical load arrives in 10x bursts with dead air between them, the
regime where buffer headroom, deflection and PFC pause behaviour
separate).  Sweeps should exclude the first and last periods via the
workload's warmup/cooldown window (network_tester uses 10 periods of
each).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from repro.sim.engine import Engine
from repro.sim.units import SECOND
from repro.workload.matrix import pick_dst, pick_src

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.distributions import EmpiricalCDF

#: open_flow(src, dst, size, is_incast, query_id, ...) -> None
FlowOpener = Callable[..., None]


def arrivals_per_s(load: float, n_hosts: int, host_rate_bps: int,
                   bytes_per_arrival: float) -> float:
    """Network-wide arrival rate (arrivals/s) that offers ``load`` of
    the aggregate host bandwidth when each arrival carries
    ``bytes_per_arrival`` (a distribution's mean is fractional, and a
    rate is a float by nature)."""
    return load * n_hosts * host_rate_bps / (8.0 * bytes_per_arrival)  # noqa: VR003


class PoissonArrivals:
    """Poisson arrivals at ``rate_per_s``, gated to the on-window of a
    duty-cycled period; subclasses implement :meth:`_arrive`, which
    makes its own draws and then calls :meth:`_schedule_next`."""

    def __init__(self, engine: Engine, rng: random.Random, until_ns: int,
                 rate_per_s: float, duty: float = 1.0,
                 period_ns: int = 1) -> None:
        self.engine = engine
        self.rng = rng
        self.until_ns = until_ns
        self.period_ns = period_ns
        self.on_ns = max(1, round(period_ns * duty))
        # Mean inter-arrival gap on the on-time axis: duty × the uniform
        # gap, keeping expected arrivals per period independent of duty.
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
            self.engine.schedule_at(when, self._arrive)

    def _arrive(self) -> None:
        raise NotImplementedError


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
