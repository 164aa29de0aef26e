"""Output-queued switch.

A switch owns a set of ports (each with its own byte-bounded queue), a
pre-populated multipath FIB mapping destination hosts to candidate egress
ports (paper §3.2 assumes pre-populated forwarding tables), and a
forwarding policy (:mod:`repro.forwarding`) that decides, per packet,
which candidate to use and what to do on overflow — drop (ECMP/DRILL),
random deflection (DIBS), or selective deflection (Vertigo).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.analysis import sanitize as _sanitize
from repro.metrics.collector import NetworkCounters
from repro.trace import hooks as _trace_hooks

_SANITIZE = _sanitize.register(__name__)
_TRACE = _trace_hooks.register(__name__)
from repro.net.link import Port
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, RankedQueue
from repro.sim.engine import Engine

PortQueue = Union[DropTailQueue, RankedQueue]

#: Hop budget; packets exceeding it are dropped (guards deflection loops,
#: mirroring the IP TTL that bounds DIBS-style deflection in practice).
MAX_HOPS = 64


class Switch:
    """A store-and-forward switch with policy-driven output queueing."""

    def __init__(self, engine: Engine, name: str,
                 counters: NetworkCounters) -> None:
        self.engine = engine
        self.name = name
        self.counters = counters
        self.ports: List[Port] = []
        #: Per-port peer kind: True if the link on that port faces a switch.
        self.port_faces_switch: List[bool] = []
        #: dst host id -> tuple of candidate (shortest-path) egress ports.
        self.fib: Dict[int, Tuple[int, ...]] = {}
        self.policy = None  # set by the network builder
        #: Fidelity controller observing congestion signals, or None
        #: (pure packet mode; see repro.net.fidelity).
        self.fidelity = None
        #: PFC ingress gates, ``{in_port: (gate per class, ...)}``, or
        #: None (PFC off; see repro.net.pfc).  Installed by the
        #: PfcController after the network is built.
        self.pfc_gates: Optional[Dict[int, Tuple]] = None
        self._switch_ports: Optional[Tuple[int, ...]] = None

    # -- construction --------------------------------------------------------

    def add_port(self, queue: PortQueue, *, faces_switch: bool) -> int:
        index = len(self.ports)
        self.ports.append(Port(self.engine, self, index, queue))
        self.port_faces_switch.append(faces_switch)
        self._switch_ports = None
        return index

    @property
    def switch_ports(self) -> Tuple[int, ...]:
        ports = self._switch_ports
        if ports is None:
            ports = self._switch_ports = tuple(
                index for index, faces in enumerate(self.port_faces_switch)
                if faces)
        return ports

    def topology_changed(self) -> None:
        """Invalidate routing caches after a FIB, port, or link change.

        Anything that rewires the switch at runtime (failure injection,
        route updates) must call this so the per-flow port caches kept by
        forwarding policies — and the cached switch-facing port set — are
        recomputed against the new state.
        """
        self._switch_ports = None
        if self.policy is not None:
            self.policy.invalidate_cache()

    # -- dataplane ------------------------------------------------------------

    def receive(self, packet: Packet, in_port: int) -> None:
        if _SANITIZE:
            self._receive_sanitized(packet, in_port)
            return
        packet.hops += 1
        if packet.hops > MAX_HOPS:
            self.drop(packet, "hop_limit")
            return
        gates = self.pfc_gates
        if gates is not None:
            gate = gates[in_port][packet.pclass]
            if not gate.admit(packet.wire_bytes):
                self.drop(packet, "pfc_headroom")
                return
            gate.charge(packet)
        self.policy.route(packet, in_port)

    def _receive_sanitized(self, packet: Packet, in_port: int) -> None:
        """Receive with the conservation invariant checked around routing.

        Every arriving packet must end up enqueued (possibly displacing
        others, which are themselves re-enqueued or dropped) or dropped
        with a reason: resident + drops is conserved, nothing vanishes and
        nothing is duplicated.  Routing is synchronous and confined to
        this switch, so snapshotting around it is exact.
        """
        resident_before = self._resident_packets()
        drops_before = self.counters.total_drops
        packet.hops += 1
        if packet.hops > MAX_HOPS:
            self.drop(packet, "hop_limit")
        else:
            gates = self.pfc_gates
            admitted = True
            if gates is not None:
                gate = gates[in_port][packet.pclass]
                if gate.admit(packet.wire_bytes):
                    gate.charge(packet)
                else:
                    self.drop(packet, "pfc_headroom")
                    admitted = False
            if admitted:
                self.policy.route(packet, in_port)
        dropped = self.counters.total_drops - drops_before
        _sanitize.check(
            self._resident_packets() + dropped == resident_before + 1,
            "switch %s lost or duplicated a packet: resident %d -> %d "
            "with %d drops while receiving %r", self.name, resident_before,
            self._resident_packets(), dropped, packet)

    def _resident_packets(self) -> int:
        """Packets held by this switch: queued plus one per busy port."""
        queued = sum(len(port.queue) for port in self.ports)
        transmitting = sum(1 for port in self.ports if port.busy)
        return queued + transmitting

    def candidates(self, dst: int) -> Tuple[int, ...]:
        try:
            return self.fib[dst]
        except KeyError:
            raise KeyError(f"{self.name}: no route to host {dst}") from None

    def enqueue(self, port_index: int, packet: Packet) -> None:
        """Enqueue a packet that the policy verified to fit."""
        self.counters.forwarded += 1
        if _TRACE is not None and _TRACE.packets:
            _TRACE.record(("pkt.enqueue", self.engine.now, self.name,
                           port_index, packet.flow_id, packet.seq,
                           packet.wire_bytes))
        port = self.ports[port_index]
        port.enqueue(packet)
        if self.fidelity is not None:
            self.fidelity.on_enqueue(port)

    def deflected(self, packet: Packet, from_port: int, to_port: int) -> None:
        """Account (and trace) one deflection decided by the policy.

        Called before the packet is enqueued at ``to_port`` (or
        force-inserted there), so the deflection is counted even if the
        packet is subsequently displaced or dropped at the target.
        """
        packet.deflections += 1
        self.counters.deflections += 1
        if _TRACE is not None and _TRACE.packets:
            _TRACE.record(("pkt.deflect", self.engine.now, self.name,
                           from_port, to_port, packet.flow_id, packet.seq,
                           packet.deflections))
        if self.fidelity is not None:
            self.fidelity.on_deflection(self.ports[from_port].link,
                                        self.ports[to_port].link)

    def drop(self, packet: Packet, reason: str) -> None:
        if packet.pfc_held:
            # A charged packet that dies at this switch (tail drop,
            # no_route, displaced victim, ...) releases its PFC
            # ingress-buffer charge here; wire drops are downstream of
            # the egress release and arrive with pfc_held == 0.
            packet.pfc_gate.release(packet)
        self.counters.drops[reason] += 1
        self.counters.class_drops[(packet.pclass, reason)] += 1
        if _TRACE is not None and _TRACE.packets:
            _TRACE.record(("pkt.drop", self.engine.now, self.name, reason,
                           packet.flow_id, packet.seq, packet.wire_bytes))

    def queue_bytes(self, port_index: int) -> int:
        return self.ports[port_index].queue.bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Switch {self.name} ports={len(self.ports)}>"
