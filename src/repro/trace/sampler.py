"""Periodic time-series samplers for a traced run.

The sampler schedules itself on the simulation engine every
``TraceConfig.sample_period_ns`` and records, into the tracer's sample
log:

- **per-port queue state** — occupancy in bytes and packets (for
  Vertigo's ranked queues the packet count *is* the rank-queue
  occupancy) plus link utilization over the elapsed interval, for every
  switch port;
- **per-flow transport state** — cwnd, smoothed RTT, in-flight
  segments, cumulatively ACKed bytes (rate = delta/period), and the
  per-transport congestion-control detail from
  :meth:`~repro.transport.base.FlowSender.cc_state`, for every active
  sender.

Values are recorded raw: the exporter owns the rounding of ``cwnd`` and
of the ``cc`` detail.  Sampling never mutates simulation state: a traced
run executes the exact same packet schedule as an untraced one (the
sampler's own ticks are extra calendar entries, which is why the
determinism digest covers traces only when tracing is enabled).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.net.builder import Network
    from repro.sim.engine import Engine, RecurringEvent
    from repro.trace.tracer import Tracer


class TraceSampler:
    """Port/flow sampler bound to one traced run.

    The one port sampler: it owns the table of ports a tick walks and
    the per-port ``bytes_sent`` delta -> busy time -> utilization
    arithmetic, and fires through the engine's one self-rescheduling
    mechanism (:meth:`~repro.sim.engine.Engine.schedule_every`).
    """

    def __init__(self, engine: "Engine", network: "Network",
                 tracer: "Tracer", period_ns: int) -> None:
        if period_ns <= 0:
            raise ValueError("sampling period must be positive")
        self.engine = engine
        self.network = network
        self.tracer = tracer
        self.period_ns = period_ns
        #: One row per switch port, built by :meth:`start`: ``(switch
        #: name, port index, port, its queue, the queue's lanes or None)``.
        self._ports: List[tuple] = []
        #: ``bytes_sent`` of each row's port at the previous tick.
        self._last_bytes: List[int] = []
        self._ticks: Optional["RecurringEvent"] = None

    def start(self) -> None:
        """Begin sampling; ticks every period until stopped."""
        if self._ticks is not None:
            return
        self._ports = [(switch.name, port.index, port, port.queue,
                        getattr(port.queue, "lanes", None))
                       for switch in self.network.switches.values()
                       for port in switch.ports]
        self._last_bytes = [row[2].bytes_sent for row in self._ports]
        self._ticks = self.engine.schedule_every(self.period_ns,
                                                 self._on_tick)

    def stop(self) -> None:
        """Cancel the pending tick (runner teardown).

        Without this the series outlives the measured window whenever
        the engine keeps running past it.
        """
        if self._ticks is not None:
            self._ticks.stop()
            self._ticks = None

    def _utilizations(self) -> List[float]:
        """Link utilization over the last period for each row of
        :attr:`_ports`, advancing the byte baselines."""
        period = self.period_ns
        sent_now = [row[2].bytes_sent for row in self._ports]
        utilizations = []
        for row, sent, last in zip(self._ports, sent_now, self._last_bytes):
            delta = sent - last
            link = row[2].link
            rate = link.rate_bps if link is not None else 0
            busy_ns = (delta * 8 * 1_000_000_000 // rate) if rate else 0
            # Dimensionless ns/ns ratio at the reporting boundary.
            utilizations.append(min(1.0, busy_ns / period))  # noqa: VR003
        self._last_bytes = sent_now
        return utilizations

    def _on_tick(self) -> None:
        now = self.engine.now
        # The tick's records, laid end to end as the tracer's log holds
        # them (kind, t, then the kind's EVENT_FIELDS).
        values: list = []
        lane_records = flow_records = 0
        # Equal congestion-control details within a tick share one
        # tuple (most flows of a tick sit in the same state): the log
        # then retains a handful of containers per tick, not one per flow.
        shared: Dict[tuple, tuple] = {}
        for (name, index, _port, queue, lanes), utilization \
                in zip(self._ports, self._utilizations()):
            values += ("sample.port", now, name, index, queue.bytes,
                       len(queue), utilization)
            if lanes is not None:
                # Priority-class egress: one sample per lane too.
                for pclass, lane in enumerate(lanes):
                    values += ("sample.lane", now, name, index, pclass,
                               lane.bytes, len(lane))
                lane_records += len(lanes)
        for host in self.network.hosts:
            name = host.name
            for flow_id, sender in host.senders.items():
                if sender.completed or sender.failed:
                    continue
                cc = sender.cc_state()
                values += ("sample.flow", now, name, flow_id, sender.cwnd,
                           sender.srtt_ns, len(sender._segments),
                           sender.snd_una, shared.setdefault(cc, cc))
                flow_records += 1
        counts: Dict[str, int] = {"sample.port": len(self._ports),
                                  "sample.lane": lane_records,
                                  "sample.flow": flow_records}
        fidelity = self.network.fidelity
        if fidelity is not None:
            analytic_links, packet_links = fidelity.link_mode_counts()
            values += ("sample.fid", now, analytic_links, packet_links,
                       fidelity.demotions, fidelity.promotions,
                       fidelity.analytic_rounds)
            counts["sample.fid"] = 1
        self.tracer.sample_tick(values, counts)
