"""Periodic time-series samplers for a traced run.

The sampler schedules itself on the simulation engine every
``TraceConfig.sample_period_ns`` and records, into the tracer's bounded
ring buffers:

- **per-port queue state** — occupancy in bytes and packets (for
  Vertigo's ranked queues the packet count *is* the rank-queue
  occupancy) plus link utilization over the elapsed interval, for every
  switch port;
- **per-flow transport state** — cwnd, smoothed RTT, in-flight
  segments, cumulatively ACKed bytes (rate = delta/period), and the
  per-transport congestion-control detail from
  :meth:`~repro.transport.base.FlowSender.cc_state`, for every active
  sender.

Sampling never mutates simulation state: a traced run executes the
exact same packet schedule as an untraced one (the sampler's own ticks
are extra calendar entries, which is why the determinism digest covers
traces only when tracing is enabled).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.net.builder import Network
    from repro.net.link import Port
    from repro.sim.engine import Engine, Event
    from repro.trace.tracer import Tracer


class PortTick:
    """A self-rescheduling tick over every switch port of a network.

    The one port sampler: it owns the calendar scaffolding (one pending
    event per consumer, at that consumer's own period) and the per-port
    ``bytes_sent`` delta -> busy time -> utilization arithmetic.
    Consumers (:class:`TraceSampler`, the telemetry monitor) subclass
    it, implement :meth:`_on_tick`, and read :meth:`_port_utilizations`.
    """

    def __init__(self, engine: "Engine", network: "Network",
                 period_ns: int) -> None:
        if period_ns <= 0:
            raise ValueError("sampling period must be positive")
        self.engine = engine
        self.network = network
        self.period_ns = period_ns
        self._last_bytes: Dict[Tuple[str, int], int] = {}
        self._pending: Optional["Event"] = None

    def start(self) -> None:
        """Begin sampling; reschedules itself until stopped."""
        if self._pending is not None:
            return
        for switch in self.network.switches.values():
            for port in switch.ports:
                self._last_bytes[(switch.name, port.index)] = \
                    port.bytes_sent
        self._pending = self.engine.schedule(self.period_ns, self._tick)

    def stop(self) -> None:
        """Cancel the pending tick (runner teardown).

        Without this the self-rescheduling tick outlives the measured
        window whenever the engine keeps running past it.
        """
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _tick(self) -> None:
        self._on_tick(self.engine.now)
        self._pending = self.engine.schedule(self.period_ns, self._tick)

    def _on_tick(self, now: int) -> None:
        raise NotImplementedError

    def _port_utilizations(self) -> Iterator[Tuple[str, "Port", float]]:
        """``(switch name, port, link utilization over the last period)``
        for every switch port, advancing the byte baselines."""
        last_bytes = self._last_bytes
        period = self.period_ns
        for switch in self.network.switches.values():
            name = switch.name
            for port in switch.ports:
                key = (name, port.index)
                sent = port.bytes_sent
                delta = sent - last_bytes[key]
                last_bytes[key] = sent
                rate = port.link.rate_bps if port.link is not None else 0
                busy_ns = (delta * 8 * 1_000_000_000 // rate) if rate else 0
                # Dimensionless ns/ns ratio at the reporting boundary.
                yield name, port, min(1.0, busy_ns / period)  # noqa: VR003


class TraceSampler(PortTick):
    """Port/flow sampler bound to one traced run."""

    def __init__(self, engine: "Engine", network: "Network",
                 tracer: "Tracer", period_ns: int) -> None:
        super().__init__(engine, network, period_ns)
        self.tracer = tracer

    def _on_tick(self, now: int) -> None:
        tracer = self.tracer
        for name, port, utilization in self._port_utilizations():
            queue = port.queue
            tracer.sample_port(now, name, port.index, queue.bytes,
                               len(queue), utilization)
            lanes = getattr(queue, "lanes", None)
            if lanes is not None:
                # Priority-class egress: one sample per lane too.
                for pclass, lane in enumerate(lanes):
                    tracer.sample_lane(now, name, port.index, pclass,
                                       lane.bytes, len(lane))
        for host in self.network.hosts:
            for flow_id, sender in host.senders.items():
                if sender.completed or sender.failed:
                    continue
                tracer.sample_flow(
                    now, host.name, flow_id, round(sender.cwnd, 6),
                    sender.srtt_ns, len(sender._segments),
                    sender.snd_una, sender.cc_state())
        fidelity = self.network.fidelity
        if fidelity is not None:
            analytic_links, packet_links = fidelity.link_mode_counts()
            tracer.sample_fid(now, analytic_links, packet_links,
                              fidelity.demotions, fidelity.promotions,
                              fidelity.analytic_rounds)
