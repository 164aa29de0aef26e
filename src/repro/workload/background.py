"""Background (all-to-all) traffic generator.

Flows arrive as a Poisson process between uniformly random host pairs with
sizes drawn from an empirical distribution.  The offered load is expressed
as a fraction of the aggregate host access bandwidth (the convention of
the paper and of the pFabric/Homa line of simulators): a load of ``L``
makes each host *send*, on average, ``L × host_rate`` bits per second.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.sim.engine import Engine
from repro.sim.units import SECOND
from repro.workload.distributions import EmpiricalCDF
from repro.workload.matrix import NodeMatrix

#: open_flow(src, dst, size, is_incast, query_id) -> None
FlowOpener = Callable[..., None]


def poisson_rate_for_load(load: float, n_hosts: int, host_rate_bps: int,
                          mean_flow_bytes: float) -> float:  # noqa: VR003
    """Network-wide flow arrival rate (flows/s) for a target load fraction.

    ``mean_flow_bytes`` is a statistical mean and therefore fractional;
    the returned arrival *rate* (flows/s) is likewise a float by nature.
    """
    if not 0 <= load:
        raise ValueError("load must be non-negative")
    return load * n_hosts * host_rate_bps / (8.0 * mean_flow_bytes)  # noqa: VR003


class BackgroundTraffic:
    """Poisson all-to-all flows from an empirical size distribution."""

    def __init__(self, engine: Engine, open_flow: FlowOpener, n_hosts: int,
                 host_rate_bps: int, load: float, sizes: EmpiricalCDF,
                 rng: random.Random, until_ns: int,
                 matrix: Optional[NodeMatrix] = None) -> None:
        if n_hosts < 2:
            raise ValueError("background traffic needs at least two hosts")
        self.engine = engine
        self.open_flow = open_flow
        self.n_hosts = n_hosts
        # All endpoint picks go through the shared traffic-matrix layer;
        # the default uniform matrix reproduces the historical inline
        # draws exactly (digest regression-tested).
        self.matrix = matrix if matrix is not None else NodeMatrix(n_hosts)
        self.rng = rng
        self.sizes = sizes
        self.until_ns = until_ns
        self.flows_generated = 0
        rate_per_s = poisson_rate_for_load(load, n_hosts, host_rate_bps,
                                           sizes.mean())
        self._mean_gap_ns = max(1, round(SECOND / rate_per_s)) \
            if rate_per_s > 0 else None

    def start(self) -> None:
        if self._mean_gap_ns is not None:
            self._schedule_next()

    def _schedule_next(self) -> None:
        # Rate parameter in 1/ns; the drawn gap is rounded to int ns below.
        gap = self.rng.expovariate(1.0 / self._mean_gap_ns)  # noqa: VR003
        when = self.engine.now + max(1, round(gap))
        if when <= self.until_ns:
            self.engine.schedule_at(when, self._launch_flow)

    def _launch_flow(self) -> None:
        src = self.matrix.pick_src(self.rng)
        dst = self.matrix.pick_dst(self.rng, src)
        size = self.sizes.sample(self.rng)
        self.open_flow(src, dst, size, is_incast=False, query_id=None)
        self.flows_generated += 1
        self._schedule_next()
