"""End-host model.

A :class:`Host` owns a NIC (an output port with a drop-tail queue feeding
its access link), an optional Vertigo marking component on the TX path, an
optional Vertigo ordering component on the RX path, and the per-flow
transport endpoints.  Packet flow mirrors Figure 2 of the paper:

TX:  transport → marking component → NIC queue → wire
RX:  wire → ordering component → transport → application callback
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Type

from repro.core.flowinfo import MarkingDiscipline
from repro.core.marking import MarkingComponent
from repro.core.ordering import DEFAULT_TIMEOUT_NS, OrderingComponent
from repro.metrics.collector import MetricsCollector
from repro.net.link import Link, Port
from repro.net.packet import Packet, PacketKind
from repro.net.queues import DropTailQueue
from repro.sim.engine import Engine
from repro.trace import hooks as _trace_hooks
from repro.transport.base import FlowReceiver, FlowSender, TransportConfig

_TRACE = _trace_hooks.register(__name__)


@dataclass(frozen=True)
class HostStackConfig:
    """Host networking-stack composition."""

    transport_cls: Type[FlowSender]
    transport: TransportConfig = field(default_factory=TransportConfig)
    vertigo_marking: bool = False
    vertigo_ordering: bool = False
    marking_discipline: MarkingDiscipline = MarkingDiscipline.SRPT
    boost_factor: int = 2
    boosting: bool = True
    ordering_timeout_ns: int = DEFAULT_TIMEOUT_NS
    nic_buffer_bytes: int = 512 * 1024


class Host:
    """A server with a single access link."""

    def __init__(self, engine: Engine, host_id: int,
                 stack: HostStackConfig, metrics: MetricsCollector) -> None:
        self.engine = engine
        self.host_id = host_id
        self.name = f"host{host_id}"
        self.stack = stack
        self.metrics = metrics

        nic_queue = DropTailQueue(stack.nic_buffer_bytes)
        nic_queue.label = self.name
        self.nic = Port(engine, self, 0, nic_queue)
        self.marking: Optional[MarkingComponent] = None
        if stack.vertigo_marking:
            self.marking = MarkingComponent(
                discipline=stack.marking_discipline,
                boost_factor=stack.boost_factor,
                boosting=stack.boosting,
                seed=host_id)
        self.ordering: Optional[OrderingComponent] = None
        if stack.vertigo_ordering:
            self.ordering = OrderingComponent(
                engine, self._deliver_data,
                timeout_ns=stack.ordering_timeout_ns,
                boost_factor=stack.boost_factor,
                discipline=stack.marking_discipline)
            self.ordering.label = self.name

        self.senders: Dict[int, FlowSender] = {}
        self.receivers: Dict[int, FlowReceiver] = {}
        #: Flow → priority-class map (repro.net.pfc): packets of flow f
        #: carry class ``priority_map[f % len(priority_map)]``.  None
        #: (the default) leaves every packet in class 0 at zero cost.
        self.priority_map = None
        #: Lossless-edge backpressure (set by the runner when PFC is
        #: enabled): senders whose next packet does not fit the NIC are
        #: parked and woken FIFO as the NIC drains, instead of dropping.
        self.nic_backpressure = False
        self._parked_senders: list = []

    # -- wiring ---------------------------------------------------------------------

    def attach(self, link: Link) -> None:
        """Attach the host's egress link (towards its ToR)."""
        self.nic.attach(link)

    # -- TX path ---------------------------------------------------------------------

    def open_sender(self, flow_id: int, dst: int, size: int,
                    on_complete: Optional[Callable[[FlowSender], None]] = None
                    ) -> FlowSender:
        """Create (but do not start) the sending endpoint of a flow;
        ``on_complete`` is called with the sender once it finishes."""
        sender = self.stack.transport_cls(
            self.engine, self, flow_id, dst, size, self.stack.transport,
            self.metrics, on_complete=on_complete)
        self.senders[flow_id] = sender
        if self.marking is not None:
            size_hint = None \
                if self.stack.marking_discipline is MarkingDiscipline.LAS \
                else size
            self.marking.register_flow(flow_id, size_hint)
        return sender

    def sender_done(self, flow_id: int) -> None:
        self.senders.pop(flow_id, None)
        if self.marking is not None:
            self.marking.flow_done(flow_id)

    def enable_nic_backpressure(self) -> None:
        """Switch the edge from drop-at-NIC to park-and-wake (PFC mode).

        A PAUSE from the ToR holds the NIC port; without backpressure
        the transports keep pacing into the finite NIC queue and the
        edge drops even though the fabric is lossless.  In PFC mode the
        runner flips this on so the whole path, host to host, is
        lossless.
        """
        self.nic_backpressure = True
        self.nic.on_drain = self._nic_drained

    #: NIC bytes kept free for control frames while senders are parked:
    #: the host's receiver role must keep emitting ACKs (the never-
    #: paused control class) even when parked data pins the queue.
    NIC_CONTROL_RESERVE_BYTES = 16 * 1024

    def nic_blocked(self, sender, wire_bytes: int) -> bool:
        """Park ``sender`` if the NIC cannot absorb its next packet.

        Returns True when the sender was parked (it must stop sending
        and wait to be woken); always False when backpressure is off,
        preserving the legacy drop-at-edge path byte for byte.
        """
        if not self.nic_backpressure:
            return False
        queue = self.nic.queue
        limit = queue.capacity_bytes - self.NIC_CONTROL_RESERVE_BYTES
        if queue.bytes + wire_bytes <= limit:
            return False
        if sender not in self._parked_senders:
            self._parked_senders.append(sender)
        return True

    def _nic_drained(self) -> None:
        """NIC freed bytes: wake parked senders in arrival order."""
        if not self._parked_senders:
            return
        parked, self._parked_senders = self._parked_senders, []
        for sender in parked:
            if not (sender.completed or sender.failed):
                sender.nic_unblocked()

    def send_packet(self, packet: Packet) -> None:
        """Stack egress: classify, mark (Vertigo), enqueue on the NIC."""
        pmap = self.priority_map
        if pmap is not None:
            packet.pclass = pmap[packet.flow_id % len(pmap)]
        if self.marking is not None:
            self.marking.mark(packet)
        nic = self.nic
        if nic.queue.fits(packet):
            if _TRACE is not None and _TRACE.packets:
                _TRACE.record(("pkt.enqueue", self.engine.now, self.name, 0,
                               packet.flow_id, packet.seq,
                               packet.wire_bytes))
            nic.enqueue(packet)
        else:
            counters = self.metrics.counters
            counters.drops["host_nic_overflow"] += 1
            counters.class_drops[(packet.pclass, "host_nic_overflow")] += 1
            if _TRACE is not None and _TRACE.packets:
                _TRACE.record(("pkt.drop", self.engine.now, self.name,
                               "host_nic_overflow", packet.flow_id,
                               packet.seq, packet.wire_bytes))

    # -- RX path -----------------------------------------------------------------------

    def open_receiver(self, flow_id: int, peer: int, size: int,
                      on_complete: Optional[Callable[[FlowReceiver], None]]
                      = None) -> FlowReceiver:
        """Create the receiving endpoint of a flow destined to this host;
        ``on_complete`` is called with the receiver once it finishes."""
        receiver = self.receivers.get(flow_id)
        if receiver is None:
            receiver = FlowReceiver(self.engine, self, flow_id, peer, size,
                                    self.metrics, on_complete=on_complete,
                                    config=self.stack.transport)
            self.receivers[flow_id] = receiver
        return receiver

    def receive(self, packet: Packet, in_port: int) -> None:
        counters = self.metrics.counters
        if packet.kind is PacketKind.DATA:
            counters.delivered += 1
            counters.hops_delivered += packet.hops
            if _TRACE is not None and _TRACE.packets:
                _TRACE.record(("pkt.deliver", self.engine.now, self.name,
                               packet.flow_id, packet.seq, packet.wire_bytes,
                               packet.hops, packet.deflections))
            receiver = self.receivers.get(packet.flow_id)
            if receiver is None:
                return
            if self.ordering is not None and not receiver.completed:
                self.ordering.on_packet(packet)
            else:
                # Straggler duplicates of completed flows bypass the
                # ordering shim so its per-flow state is not re-created.
                receiver.on_data(packet)
        else:
            sender = self.senders.get(packet.flow_id)
            if sender is not None:
                sender.on_ack(packet)

    def _deliver_data(self, packet: Packet) -> None:
        receiver = self.receivers.get(packet.flow_id)
        if receiver is not None:
            receiver.on_data(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.host_id}>"
