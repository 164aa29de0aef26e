"""Vertigo RX-path ordering component (paper §3.3, Figure 4).

The first software entity to see packets off the NIC.  Per active flow it
keeps the expected RFS and a buffer of early (out-of-order) packets, and
runs the paper's three-state machine:

- **Init** — waiting for the flow's first packet (FLAGS bit set).
- **In-order receive** — arriving packet matches the expected RFS: deliver
  immediately and advance the expectation.
- **Out-of-order receive** — an early packet arrived; buffer it and arm
  the reordering timeout τ.  Four events are handled exactly as §3.3.2
  enumerates: more early packets (buffer, keep waiting), a gap-filling
  packet (deliver the now-contiguous run, subtract the elapsed wait from
  the next timer), a *late* packet whose RFS precedes the expectation
  (a delayed re-transmission or duplicate — passed straight up), and the
  timeout itself (release up to the next gap so the transport's own
  recovery — fast retransmit included — takes over).

Boosted re-transmissions are first un-rotated (``retcnt`` left rotations)
to recover the original RFS.  Under SRPT the expected RFS *decreases* by
each delivered payload; under LAS the attained-service tag *increases* —
the ``direction`` of the state machine is the only difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis import sanitize as _sanitize
from repro.core.flowinfo import MarkingDiscipline
from repro.trace import hooks as _trace_hooks

_SANITIZE = _sanitize.register(__name__)
_TRACE = _trace_hooks.register(__name__)
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine
from repro.sim.timers import Timer
from repro.sim.units import usecs

#: Paper default reordering timeout (τ) for the evaluated topologies.
DEFAULT_TIMEOUT_NS = usecs(360)


class OrderingState(enum.Enum):
    INIT = "init"
    IN_ORDER = "in_order"
    OUT_OF_ORDER = "out_of_order"


@dataclass
class _FlowOrderState:
    expected: Optional[int] = None          # original-RFS of the next packet
    buffer: Dict[int, Tuple[Packet, int]] = field(default_factory=dict)
    state: OrderingState = OrderingState.INIT
    timer: Optional[Timer] = None

    def stop_timer(self) -> None:
        if self.timer is not None:
            self.timer.stop()


class OrderingComponent:
    """Per-host receive-side re-sequencing shim."""

    def __init__(self, engine: Engine, deliver: Callable[[Packet], None],
                 timeout_ns: int = DEFAULT_TIMEOUT_NS,
                 boost_factor: int = 2,
                 discipline: MarkingDiscipline = MarkingDiscipline.SRPT
                 ) -> None:
        self.engine = engine
        self.deliver = deliver
        self._raw_deliver = deliver
        #: Release-exactly-once bookkeeping (sanitize mode only; empty
        #: otherwise).
        self._released_uids: Set[int] = set()
        if _SANITIZE:
            # Release-exactly-once: the shim must never hand the same
            # packet object up twice (late *re-transmissions* are distinct
            # packets and are legitimately passed through).  Bound at
            # construction so the off path pays nothing per packet.
            self.deliver = self._checked_deliver
        self.timeout_ns = timeout_ns
        self.boost_factor = boost_factor
        self.discipline = discipline
        self._flows: Dict[int, _FlowOrderState] = {}
        self.packets_buffered = 0
        self.timeouts_fired = 0
        #: Owning host name (stamped by the host); trace identity.
        self.label = ""

    def _checked_deliver(self, packet: Packet) -> None:
        _sanitize.check(packet.uid not in self._released_uids,
                        "ordering released packet uid=%d (flow %d) "
                        "twice", packet.uid, packet.flow_id)
        self._released_uids.add(packet.uid)
        self._raw_deliver(packet)

    # -- tag arithmetic -----------------------------------------------------------

    def _next_expected(self, tag: int, payload: int) -> int:
        if self.discipline is MarkingDiscipline.SRPT:
            return tag - payload
        return tag + payload

    def _is_early(self, tag: int, expected: int) -> bool:
        """Early = belongs later in the flow than the expected packet."""
        if self.discipline is MarkingDiscipline.SRPT:
            return tag < expected
        return tag > expected

    # -- flow lifecycle -------------------------------------------------------------

    def flow_done(self, flow_id: int) -> None:
        """Tear down per-flow state (transport signalled completion)."""
        state = self._flows.pop(flow_id, None)
        if state is not None:
            state.stop_timer()
            # Anything still buffered is stale duplicates; hand it up so
            # the transport can re-ACK, never silently swallow bytes.
            for tag in sorted(state.buffer, reverse=True):
                if _TRACE is not None and _TRACE.packets:
                    _TRACE.ord_release(self.engine.now, self.label,
                                       flow_id, tag, "stale")
                self.deliver(state.buffer[tag][0])

    def active_flows(self) -> int:
        return len(self._flows)

    # -- main entry -----------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.DATA or packet.flowinfo is None:
            self.deliver(packet)
            return
        tag = packet.flowinfo.original_rfs(self.boost_factor)
        state = self._flows.get(packet.flow_id)
        if state is None:
            state = _FlowOrderState()
            self._flows[packet.flow_id] = state

        if state.expected is None:
            # Still in Init: the flow's first packet has not been seen.
            self._on_packet_init(packet, tag, state)
        elif tag == state.expected:
            self._deliver_in_order(packet, tag, state)
            self._drain_buffer(state, packet.flow_id)
        elif self._is_early(tag, state.expected):
            self._buffer_early(packet, tag, state, packet.flow_id)
        else:
            # Late packet: delayed re-transmission or duplicate of bytes
            # already released — pass it up immediately (§3.3.2, event 3).
            self.deliver(packet)

    # -- state transitions -------------------------------------------------------------

    def _on_packet_init(self, packet: Packet, tag: int,
                        state: _FlowOrderState) -> None:
        if packet.flowinfo.first:
            state.expected = tag
            self._deliver_in_order(packet, tag, state)
            self._drain_buffer(state, packet.flow_id)
        else:
            # The flow's first packet is missing: out-of-order from birth.
            self._buffer_early(packet, tag, state, packet.flow_id)

    def _deliver_in_order(self, packet: Packet, tag: int,
                          state: _FlowOrderState) -> None:
        state.expected = self._next_expected(tag, packet.payload)
        state.state = OrderingState.IN_ORDER
        self.deliver(packet)
        self._check_flow_complete(packet.flow_id, state)

    def _check_flow_complete(self, flow_id: int,
                             state: _FlowOrderState) -> None:
        # Under SRPT the expectation hits exactly zero after the last
        # packet; transition back to "waiting for a new flow".
        if (self.discipline is MarkingDiscipline.SRPT
                and state.expected == 0 and not state.buffer):
            state.stop_timer()
            self._flows.pop(flow_id, None)

    def _buffer_early(self, packet: Packet, tag: int,
                      state: _FlowOrderState, flow_id: int) -> None:
        if tag in state.buffer:
            return  # duplicate of an already-buffered early packet
        state.buffer[tag] = (packet, self.engine.now)
        self.packets_buffered += 1
        if _TRACE is not None and _TRACE.packets:
            _TRACE.ord_hold(self.engine.now, self.label, flow_id, tag)
        state.state = OrderingState.OUT_OF_ORDER
        if state.timer is None:
            state.timer = Timer(self.engine, self._on_timeout, flow_id)
        if not state.timer.armed:
            state.timer.start(self.timeout_ns)

    def _drain_buffer(self, state: _FlowOrderState, flow_id: int) -> None:
        """Deliver buffered packets that are now contiguous (event 2)."""
        while state.expected is not None and state.expected in state.buffer:
            tag = state.expected
            packet, _ = state.buffer.pop(tag)
            if _TRACE is not None and _TRACE.packets:
                _TRACE.ord_release(self.engine.now, self.label, flow_id,
                                   tag, "drain")
            self._deliver_in_order(packet, tag, state)
        live = self._flows.get(flow_id)
        if live is not state:
            return  # flow completed and was torn down during the drain
        if state.buffer:
            self._rearm(state)
        else:
            state.stop_timer()
            state.state = OrderingState.IN_ORDER

    def _rearm(self, state: _FlowOrderState) -> None:
        """Re-arm the timeout, crediting the wait already served (§3.3.2)."""
        head_tag = self._head_tag(state)
        _, arrived = state.buffer[head_tag]
        remaining = self.timeout_ns - (self.engine.now - arrived)
        state.timer.start(max(1, remaining))

    def _head_tag(self, state: _FlowOrderState) -> int:
        """Buffered tag closest to the expectation (next release head)."""
        if self.discipline is MarkingDiscipline.SRPT:
            return max(state.buffer)
        return min(state.buffer)

    def _on_timeout(self, flow_id: int) -> None:
        state = self._flows.get(flow_id)
        if state is None or not state.buffer:
            return
        self.timeouts_fired += 1
        # Release the contiguous run at the head of the out-of-order
        # buffer up to the next gap, and move the expectation past it so
        # the transport sees the loss and can fast-retransmit (event 4).
        tag = self._head_tag(state)
        while True:
            packet, _ = state.buffer.pop(tag)
            if _TRACE is not None and _TRACE.packets:
                _TRACE.ord_release(self.engine.now, self.label, flow_id,
                                   tag, "timeout")
            state.expected = self._next_expected(tag, packet.payload)
            self.deliver(packet)
            next_tag = state.expected
            if next_tag not in state.buffer:
                break
            tag = next_tag
        state.state = OrderingState.IN_ORDER
        self._check_flow_complete(flow_id, state)
        live = self._flows.get(flow_id)
        if live is state and state.buffer:
            state.state = OrderingState.OUT_OF_ORDER
            self._rearm(state)
