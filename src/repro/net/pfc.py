"""Priority flow control: per-class ingress accounting and PAUSE frames.

Models 802.1Qbb-style PFC on top of the output-queued switch: every
switch *ingress* (the receiving end of a directed link) owns one
:class:`PfcGate` per priority class.  A gate charges each admitted packet
against a virtual ingress buffer for as long as the packet is resident at
the switch (queued or serializing — store-and-forward), and runs the
XOFF/XON state machine:

- occupancy crosses **XOFF** → send PAUSE: after one reverse-link
  propagation delay the upstream transmitter holds that class
  (:meth:`repro.net.link.Port.pfc_hold`).
- occupancy drains to **XON** → send RESUME the same way.

PAUSE/RESUME control frames are scheduled as integer-ns priority events
(:data:`PAUSE_PRIORITY`, like fault events) so a hold lands before any
same-instant packet arrival, and hold/resume pairs for one gate can
never reorder (same delay, same priority, FIFO sequence numbers).

Admission is the only loss point: a packet is always admitted while the
gate is below XOFF (the crossing packet is what *triggers* the pause),
and above XOFF it is admitted only into the configured **headroom**,
sized by default to cover the in-flight bytes of the pause loop
(2 x one-way BDP + 2 MTU).  With default headroom the fabric is
lossless; with ``headroom_bytes=0`` the post-XOFF in-flight packets are
dropped with reason ``pfc_headroom`` — both behaviours are tested.

Egress queues are effectively unbounded when PFC is enabled: every
switch-resident packet is charged to exactly one ingress gate, so total
residency is bounded by the sum of gate capacities and tail-drop at the
egress queue cannot occur.  Shared-buffer (DT) switches are mutually
exclusive with PFC for this reason.

The controller also owns the run's *deadlock* verdict, taken once at
the end from the gates and the switches' queued packets
(:meth:`PfcController.deadlocked`): a gate is deadlocked when nothing it
charges can ever leave, because every byte waits in a lane held by
another deadlocked gate.  A pause cycle that is merely standing at some
instant is not one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

# PfcConfig stays importable from here: pickled configs name this path.
from repro.net.builder import PfcConfig
from repro.net.packet import MTU_WIRE_BYTES
from repro.trace import hooks as _trace_hooks

_TRACE = _trace_hooks.register(__name__)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.builder import Network
    from repro.net.link import Port
    from repro.net.packet import Packet
    from repro.sim.engine import Engine

#: PAUSE/RESUME control events run at the same elevated priority as
#: fault events: ahead of any packet event scheduled for the same
#: instant, so a hold takes effect before the next same-tick dequeue.
PAUSE_PRIORITY = -1


def resolve_thresholds(config: PfcConfig, buffer_bytes: int,
                       rate_bps: int, delay_ns: int
                       ) -> Tuple[int, int, int]:
    """Resolve (xoff, xon, headroom) bytes, all-integer arithmetic.

    Auto XOFF gives each class half its even share of the port buffer;
    auto XON is half of XOFF (hysteresis); auto headroom covers the
    worst-case pause-loop in-flight bytes: one reverse propagation delay
    for the PAUSE plus one forward delay of line-rate bytes (2 x one-way
    BDP at the fastest link) plus one packet mid-serialization at each
    end (2 MTU).
    """
    xoff = config.xoff_bytes or buffer_bytes // (2 * config.num_classes)
    xon = config.xon_bytes or xoff // 2
    if config.headroom_bytes is not None:
        headroom = config.headroom_bytes
    else:
        bdp = rate_bps * delay_ns // (8 * 1_000_000_000)
        headroom = 2 * bdp + 2 * MTU_WIRE_BYTES
    if xoff <= 0:
        raise ValueError("resolved XOFF threshold must be positive")
    return xoff, xon, headroom


class PfcGate:
    """Ingress-buffer accounting for one (switch, in-port, class) triple.

    The gate charges packets while resident at the downstream switch and
    pauses/resumes the single upstream transmitter feeding this ingress.
    All state is integer bytes / integer ns.
    """

    __slots__ = ("engine", "network", "node", "in_port", "pclass",
                 "upstream_port", "upstream_label", "delay_ns", "xoff",
                 "xon", "capacity", "occupancy", "paused", "paused_since",
                 "pause_ns", "pause_events", "headroom_drops")

    def __init__(self, engine: "Engine", network: "Network", node: str,
                 in_port: int, pclass: int, upstream_port: "Port",
                 upstream_label: str, delay_ns: int, xoff: int, xon: int,
                 headroom: int) -> None:
        self.engine = engine
        self.network = network
        self.node = node                  # downstream switch name
        self.in_port = in_port            # ingress port index at node
        self.pclass = pclass
        self.upstream_port = upstream_port
        self.upstream_label = upstream_label
        self.delay_ns = delay_ns          # reverse-link PAUSE propagation
        self.xoff = xoff
        self.xon = xon
        self.capacity = xoff + headroom
        self.occupancy = 0
        self.paused = False
        self.paused_since = 0
        self.pause_ns = 0
        self.pause_events = 0
        self.headroom_drops = 0

    # -- dataplane ------------------------------------------------------------

    def admit(self, wire_bytes: int) -> bool:
        """Admission check: always below XOFF, headroom-bounded above."""
        if self.occupancy < self.xoff:
            return True
        if self.occupancy + wire_bytes <= self.capacity:
            return True
        self.headroom_drops += 1
        return False

    def charge(self, packet: "Packet") -> None:
        """Charge an admitted packet for its residency at the switch."""
        self.occupancy += packet.wire_bytes
        packet.pfc_gate = self
        packet.pfc_held = packet.wire_bytes
        if not self.paused and self.occupancy >= self.xoff:
            self._pause()

    def release(self, packet: "Packet") -> None:
        """Release a packet's charge (egress tx done, or dropped)."""
        self.occupancy -= packet.pfc_held
        packet.pfc_held = 0
        packet.pfc_gate = None
        if self.paused and self.occupancy <= self.xon:
            self._resume()

    # -- XOFF/XON state machine ----------------------------------------------

    def _pause(self) -> None:
        now = self.engine.now
        self.paused = True
        self.paused_since = now
        self.pause_events += 1
        if _TRACE is not None:
            _TRACE.record(("pfc.pause", now, self.node, self.in_port,
                           self.pclass, self.occupancy))
        self.engine.schedule(self.delay_ns, self._hold_upstream, True,
                             priority=PAUSE_PRIORITY)

    def _resume(self) -> None:
        now = self.engine.now
        self.paused = False
        self.pause_ns += now - self.paused_since
        if _TRACE is not None:
            _TRACE.record(("pfc.resume", now, self.node, self.in_port,
                           self.pclass, self.occupancy))
        self.engine.schedule(self.delay_ns, self._hold_upstream, False,
                             priority=PAUSE_PRIORITY)

    def _hold_upstream(self, hold: bool) -> None:
        """PAUSE/RESUME frame arrival at the upstream transmitter."""
        self.upstream_port.pfc_hold(self.pclass, hold)
        if hold:
            fidelity = self.network.fidelity
            if fidelity is not None:
                fidelity.on_pause(self.upstream_port.link)

    def pause_time_ns(self, now_ns: int) -> int:
        """Total paused time, closing any open pause interval."""
        span = self.pause_ns
        if self.paused:
            span += now_ns - self.paused_since
        return span


class PfcController:
    """Builds and owns every gate in the network; reporting surface."""

    def __init__(self, engine: "Engine", config: PfcConfig,
                 network: "Network") -> None:
        self.engine = engine
        self.config = config
        self.network = network
        self.gates: List[PfcGate] = []

    def install(self) -> None:
        """Create one gate per (switch ingress, class) and wire admission.

        Walks every directed link that terminates at a switch; the
        upstream transmitter is the registered tx port of that directed
        channel (a switch egress port or a host NIC — host NICs are
        paused too, so lossless-ness extends to the edge).
        """
        params = self.network.params
        rate = max(params.host_rate_bps, params.fabric_rate_bps)
        delay = max(params.host_link_delay_ns, params.fabric_link_delay_ns)
        xoff, xon, headroom = resolve_thresholds(
            self.config, params.buffer_bytes, rate, delay)
        switches = self.network.switches
        per_switch: Dict[str, Dict[int, Tuple[PfcGate, ...]]] = {}
        for (src_label, dst_label), link in self.network.links.items():
            if dst_label not in switches:
                continue  # host ingress: hosts sink packets, no gate
            node = dst_label
            in_port = link.dst_port
            upstream_port = self.network.tx_ports[(src_label, dst_label)]
            lane_gates = tuple(
                PfcGate(self.engine, self.network, node, in_port, pclass,
                        upstream_port, src_label, link.delay_ns,
                        xoff, xon, headroom)
                for pclass in range(self.config.num_classes))
            per_switch.setdefault(node, {})[in_port] = lane_gates
            self.gates.extend(lane_gates)
        for name, by_port in per_switch.items():
            switches[name].pfc_gates = by_port

    # -- reporting ------------------------------------------------------------

    def deadlocked(self) -> List[PfcGate]:
        """Gates that can never drain again, in gate order.

        The greatest set of occupied gates whose every charged byte is
        queued in an egress lane held by a paused gate of the set.  A
        byte that is serializing, or queued in a lane nothing holds, or
        held by a gate whose RESUME is already on its way, will move;
        so will everything waiting on it.  The set is what is left once
        no member waits on a non-member (a fixed-point peel).
        """
        queued: Dict[PfcGate, int] = {}
        holders: Dict[PfcGate, set] = {}
        moving = set()
        for switch in self.network.switches.values():
            for port in switch.ports:
                for packet in port.queue.packets():
                    gate = packet.pfc_gate
                    queued[gate] = queued.get(gate, 0) + packet.pfc_held
                    pclass = packet.pclass
                    holder = None
                    if port._paused >> pclass & 1:
                        link = port.link
                        holder = link.dst.pfc_gates[link.dst_port][pclass]
                    if holder is None or not holder.paused:
                        moving.add(gate)
                    else:
                        holders.setdefault(gate, set()).add(holder)
        stuck = [gate for gate in self.gates
                 if gate.occupancy and gate not in moving
                 and queued.get(gate, 0) == gate.occupancy]
        while True:
            members = set(stuck)
            kept = [gate for gate in stuck if holders[gate] <= members]
            if len(kept) == len(stuck):
                return kept
            stuck = kept

    def summary(self, now_ns: int) -> dict:
        """Deterministic, digest-safe PFC summary (integer bytes and ns).

        ``deadlocks`` (``[upstream, node, class, paused_since]`` per
        :meth:`deadlocked` gate, ``paused_since`` None for a member that
        waits without having paused) appears only when there is one: a
        deadlock never drains, so the horizon sees every one that formed.
        """
        pauses = sorted(
            [gate.upstream_label, gate.node, gate.pclass,
             gate.pause_events, gate.pause_time_ns(now_ns)]
            for gate in self.gates if gate.pause_events > 0)
        summary = {
            "gates": len(self.gates),
            "pause_events": sum(g.pause_events for g in self.gates),
            "pause_ns": sum(g.pause_time_ns(now_ns) for g in self.gates),
            "paused_at_end": sum(1 for g in self.gates if g.paused),
            "headroom_drops": sum(g.headroom_drops for g in self.gates),
            "pauses": pauses,
        }
        deadlocks = sorted(
            [gate.upstream_label, gate.node, gate.pclass,
             gate.paused_since if gate.paused else None]
            for gate in self.deadlocked())
        if deadlocks:
            summary["deadlocks"] = deadlocks
        return summary
