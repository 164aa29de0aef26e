"""Incast query application (paper §2 and §4.1).

Randomly selected clients periodically issue queries to ``scale`` randomly
selected servers; every server replies with ``flow_bytes`` of data, all
converging on the client's downlink simultaneously — the canonical
microburst.  A query completes when all replies have been fully received.

Queries arrive as a Poisson process at ``qps``.  Request propagation
(client → servers) is modeled as a one-way network delay before the
response flows start: requests are single small packets traveling the
uncongested direction, so their queueing is negligible next to the
response incast the paper studies (substitution documented in DESIGN.md).
"""

from __future__ import annotations

import random

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.workload.arrivals import FlowOpener, PoissonArrivals
from repro.workload.matrix import pick_servers, pick_src


class IncastApp(PoissonArrivals):
    """Poisson incast query generator."""

    def __init__(self, engine: Engine, open_flow: FlowOpener,
                 metrics: MetricsCollector, n_hosts: int, qps: float,
                 scale: int, flow_bytes: int, rng: random.Random,
                 until_ns: int, request_delay_ns: int = 2_000) -> None:
        super().__init__(engine, rng, until_ns, qps)
        self.open_flow = open_flow
        self.metrics = metrics
        self.n_hosts = n_hosts
        self.scale = scale
        self.flow_bytes = flow_bytes
        self.request_delay_ns = request_delay_ns

    def _arrive(self) -> None:
        client = pick_src(self.rng, self.n_hosts)
        servers = pick_servers(self.rng, self.n_hosts, client, self.scale)
        query_id = self.metrics.query_started(
            client, self.engine.now, n_flows=len(servers)).query_id
        for server in servers:
            # Responses start after the one-way request latency, with a
            # small per-server jitter from OS scheduling.
            delay = self.request_delay_ns + self.rng.randrange(0, 1_000)
            self.engine.schedule_fast(delay, self.open_flow, server, client,
                                      self.flow_bytes, True, query_id)
        self._schedule_next()
