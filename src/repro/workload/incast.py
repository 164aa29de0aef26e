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

import itertools
import random
from typing import Callable

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.sim.units import SECOND
from repro.workload.matrix import pick_servers, pick_src

FlowOpener = Callable[..., None]


def qps_for_load(load: float, n_hosts: int, host_rate_bps: int,
                 scale: int, flow_bytes: int) -> float:
    """Queries/s so the incast traffic offers ``load`` of host bandwidth."""
    if scale <= 0 or flow_bytes <= 0:
        raise ValueError("incast scale and flow size must be positive")
    # The returned query *rate* (queries/s) is a float by nature.
    return load * n_hosts * host_rate_bps / (8.0 * scale * flow_bytes)  # noqa: VR003


class IncastApp:
    """Poisson incast query generator."""

    def __init__(self, engine: Engine, open_flow: FlowOpener,
                 metrics: MetricsCollector, n_hosts: int, qps: float,
                 scale: int, flow_bytes: int, rng: random.Random,
                 until_ns: int, request_delay_ns: int = 2_000) -> None:
        if scale >= n_hosts:
            raise ValueError(
                f"incast scale {scale} must be below host count {n_hosts}")
        self.engine = engine
        self.open_flow = open_flow
        self.metrics = metrics
        self.n_hosts = n_hosts
        self.qps = qps
        self.scale = scale
        self.flow_bytes = flow_bytes
        self.rng = rng
        self.until_ns = until_ns
        self.request_delay_ns = request_delay_ns
        self.queries_issued = 0
        # Query ids are per-app (not process-global) so runs in the same
        # process stay bit-identical for a given seed.
        self._query_ids = itertools.count(1)
        self._mean_gap_ns = max(1, round(SECOND / qps)) if qps > 0 else None

    def start(self) -> None:
        if self._mean_gap_ns is not None:
            self._schedule_next()

    def _schedule_next(self) -> None:
        # Rate parameter in 1/ns; the drawn gap is rounded to int ns below.
        gap = self.rng.expovariate(1.0 / self._mean_gap_ns)  # noqa: VR003
        when = self.engine.now + max(1, round(gap))
        if when <= self.until_ns:
            self.engine.schedule_at(when, self._issue_query)

    def _issue_query(self) -> None:
        client = pick_src(self.rng, self.n_hosts)
        servers = pick_servers(self.rng, self.n_hosts, client, self.scale)
        query_id = next(self._query_ids)
        self.metrics.query_started(query_id, client, self.engine.now,
                                   n_flows=len(servers))
        self.queries_issued += 1
        for server in servers:
            # Responses start after the one-way request latency, with a
            # small per-server jitter from OS scheduling.
            delay = self.request_delay_ns + self.rng.randrange(0, 1_000)
            self.engine.schedule_fast(delay, self.open_flow, server, client,
                                      self.flow_bytes, True, query_id)
        self._schedule_next()
