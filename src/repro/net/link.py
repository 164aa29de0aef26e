"""Ports and links.

A :class:`Port` owns one output queue and one directed :class:`Link`.
Transmission is store-and-forward: when the port is idle and its queue is
non-empty, the head (or minimum-rank) packet is serialized for
``wire_bytes * 8 / rate`` and then delivered to the peer device after the
link's propagation delay.  A full-duplex cable between two devices is two
directed links.

Links carry runtime-mutable failure state for the fault-injection
subsystem (:mod:`repro.faults`):

- **up/down** — a down link transmits nothing: the owning port holds its
  queue (packets accumulate and overflow upstream by policy).  A packet
  *mid-serialization* at the down instant finishes serializing and is
  then dropped at the wire with reason ``link_down`` (its bits hit a dead
  cable); a packet already *propagating* (``deliver`` already scheduled)
  was committed to the wire before the cut and still arrives.
- **rate** — takes effect from the next serialization; the in-flight
  packet keeps the rate it started with.
- **corruption loss** — each delivery is independently dropped with the
  configured probability, drawn from the caller-supplied named RNG
  stream so digests stay reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Protocol, Union

from repro.sim.engine import Engine
from repro.sim.units import SECOND
from repro.trace import hooks as _trace_hooks

_TRACE = _trace_hooks.register(__name__)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.queues import DropTailQueue, RankedQueue

    PortQueue = Union[DropTailQueue, RankedQueue]
    DropCallback = Callable[["Packet", str], None]


class Device(Protocol):
    """Anything that can terminate a link (switch or host)."""

    name: str

    def receive(self, packet, in_port: int) -> None: ...


class Link:
    """A directed channel delivering packets to a peer device's input.

    Failure injection: ``up`` gates delivery (see the module docstring
    for in-flight semantics); with ``loss_rate`` > 0 each delivery is
    independently corrupted (dropped) with that probability, modelling
    bit errors or a flaky cable.  Every wire drop — corruption
    (``"link_loss"``) or dead link (``"link_down"``) — is reported to
    ``on_drop(packet, reason)``.
    """

    __slots__ = ("engine", "rate_bps", "delay_ns", "dst", "dst_port",
                 "loss_rate", "loss_rng", "on_drop", "losses", "up",
                 "label", "fidelity")

    def __init__(self, engine: Engine, rate_bps: int, delay_ns: int,
                 dst: Device, dst_port: int, *, loss_rate: float = 0.0,
                 loss_rng=None,
                 on_drop: Optional["DropCallback"] = None,
                 label: str = "") -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if loss_rate > 0.0 and loss_rng is None:
            raise ValueError("lossy links need a random stream")
        self.engine = engine
        self.rate_bps = rate_bps
        self.delay_ns = delay_ns
        self.dst = dst
        self.dst_port = dst_port
        self.loss_rate = loss_rate
        self.loss_rng = loss_rng
        self.on_drop = on_drop
        self.losses = 0
        self.up = True
        #: Directed-channel name (``src->dst``), the trace identity for
        #: wire drops.  Stamped by the network builder.
        self.label = label
        #: Fidelity controller observing wire drops, or None (pure
        #: packet mode; see repro.net.fidelity).
        self.fidelity = None

    # -- runtime rewiring (fault injection) -----------------------------------

    def set_up(self, up: bool) -> None:
        """Raise or cut the link.  The owning port re-kicks itself on up."""
        self.up = up

    def set_rate(self, rate_bps: int) -> None:
        """Degrade (or restore) the link rate; next serialization uses it."""
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.rate_bps = rate_bps

    def set_loss(self, loss_rate: float, loss_rng=None) -> None:
        """Impose (or heal, with 0) a probabilistic corruption loss."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if loss_rate > 0.0 and loss_rng is None and self.loss_rng is None:
            raise ValueError("lossy links need a random stream")
        self.loss_rate = loss_rate
        if loss_rng is not None:
            self.loss_rng = loss_rng

    # -- dataplane ------------------------------------------------------------

    def deliver(self, packet) -> None:
        """Schedule arrival at the peer after the propagation delay.

        The one home of the down and loss semantics and their drop,
        fidelity and trace hooks; a port whose link is up and lossless
        schedules the arrival itself (:meth:`Port._tx_done`).
        """
        if not self.up:
            if self.on_drop is not None:
                self.on_drop(packet, "link_down")
            if self.fidelity is not None:
                self.fidelity.on_wire_drop(self)
            if _TRACE is not None and _TRACE.packets:
                _TRACE.record(("pkt.drop", self.engine.now, self.label,
                               "link_down", packet.flow_id, packet.seq,
                               packet.wire_bytes))
            return
        if self.loss_rate > 0.0 \
                and self.loss_rng.random() < self.loss_rate:
            self.losses += 1
            if self.on_drop is not None:
                self.on_drop(packet, "link_loss")
            if self.fidelity is not None:
                self.fidelity.on_wire_drop(self)
            if _TRACE is not None and _TRACE.packets:
                _TRACE.record(("pkt.drop", self.engine.now, self.label,
                               "link_loss", packet.flow_id, packet.seq,
                               packet.wire_bytes))
            return
        self.engine.schedule_fast(self.delay_ns, self.dst.receive, packet,
                                  self.dst_port)


class Port:
    """An output port: queue + attached egress link + transmit loop."""

    __slots__ = ("engine", "owner", "index", "queue", "link", "busy",
                 "bytes_sent", "packets_sent", "_paused", "on_drain")

    def __init__(self, engine: Engine, owner: Device, index: int,
                 queue: "PortQueue") -> None:
        self.engine = engine
        self.owner = owner
        self.index = index
        self.queue = queue
        self.link: Optional[Link] = None
        self.busy = False
        self.bytes_sent = 0
        self.packets_sent = 0
        #: PFC hold state: bitmask of paused priority classes (bit i set
        #: = class i held by a downstream PAUSE).  0 when PFC is off.
        self._paused = 0
        #: Called whenever a packet leaves the queue (bytes freed).  Only
        #: host NICs in lossless (PFC) mode set this, to wake transports
        #: parked by edge backpressure; None everywhere else.
        self.on_drain = None

    def attach(self, link: Link) -> None:
        self.link = link

    @property
    def peer(self) -> Optional[Device]:
        return self.link.dst if self.link is not None else None

    def enqueue(self, packet) -> None:
        """Enqueue a packet that is known to fit, and kick the transmitter."""
        self.queue.push(packet, self.engine.now)
        if not self.busy:
            self._try_transmit()

    def kick(self) -> None:
        """Restart the transmit loop (the link came back up, or PFC
        released a class)."""
        if not self.busy and self.queue.bytes:
            self._try_transmit()

    def pfc_hold(self, pclass: int, hold: bool) -> None:
        """PFC PAUSE/RESUME for one priority class (repro.net.pfc).

        A held class stays queued; on a port with a plain (laneless)
        queue any held class holds the whole port — documented
        head-of-line blocking at the host NIC edge, never a drop.
        """
        if hold:
            self._paused |= 1 << pclass
        else:
            self._paused &= ~(1 << pclass)
            self.kick()

    def _try_transmit(self) -> None:
        """Start serializing the next packet.

        Entered only with the port idle and the queue non-empty (every
        caller checks both); what remains to decide here is whether the
        link can carry a packet and whether PFC lets one go.
        """
        link = self.link
        if link is None or not link.up:
            return
        engine = self.engine
        now = engine.now
        if self._paused:
            packet = self.queue.pop_unpaused(self._paused, now)
            if packet is None:
                return  # every non-empty lane is held
        else:
            packet = self.queue.pop(now)
        if _TRACE is not None and _TRACE.packets:
            _TRACE.record(("pkt.dequeue", now, self.owner.name, self.index,
                           packet.flow_id, packet.seq, packet.wire_bytes))
        self.busy = True
        # transmission_delay_ns(), inline: Link keeps rate_bps positive.
        engine.schedule_fast(
            -(-packet.wire_bytes * 8 * SECOND // link.rate_bps),
            self._tx_done, packet)
        if self.on_drain is not None:
            self.on_drain()

    def _tx_done(self, packet) -> None:
        self.busy = False
        self.bytes_sent += packet.wire_bytes
        self.packets_sent += 1
        if packet.pfc_gate is not None:
            # Store-and-forward: the packet leaves this switch now, so
            # its PFC ingress-buffer charge is released (repro.net.pfc).
            packet.pfc_gate.release(packet)
        link = self.link
        if link.up and not link.loss_rate:
            self.engine.schedule_fast(link.delay_ns, link.dst.receive,
                                      packet, link.dst_port)
        else:
            # Dead or lossy cable: the drop, trace and fidelity hooks
            # live in Link.deliver.
            link.deliver(packet)
        # Every packet has a header, so "holds bytes" is "non-empty" —
        # an attribute read where bool(queue) is a Python call.
        if self.queue.bytes:
            self._try_transmit()
