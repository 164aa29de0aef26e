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
to recover the original RFS; with ``retcnt == 0`` the wire RFS is it.
Under SRPT the expected RFS *decreases* by each delivered payload; under
LAS the attained-service tag *increases* — the direction, resolved at
construction, is the only difference.  A flow is in Init while it has no
expectation and Out-of-order while its buffer holds packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from repro.analysis import sanitize as _sanitize
from repro.core.flowinfo import MarkingDiscipline, rotations_for_factor
from repro.trace import hooks as _trace_hooks

_SANITIZE = _sanitize.register(__name__)
_TRACE = _trace_hooks.register(__name__)
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine
from repro.sim.timers import Timer
from repro.sim.units import usecs

#: Paper default reordering timeout (τ) for the evaluated topologies.
DEFAULT_TIMEOUT_NS = usecs(360)


@dataclass
class _FlowOrderState:
    expected: Optional[int] = None          # original-RFS of the next packet
    buffer: Dict[int, Tuple[Packet, int]] = field(default_factory=dict)
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
        rotations_for_factor(boost_factor)  # a bad factor fails here
        self.boost_factor = boost_factor
        srpt = discipline is MarkingDiscipline.SRPT
        #: Tag change per payload byte; *early* (belongs later in the
        #: flow) is ``(tag - expected) * _step > 0``.
        self._step = -1 if srpt else 1
        #: Expectation after a flow's last packet (LAS has none).
        self._final_expected = 0 if srpt else None
        self._head = max if srpt else min  # buffered tag released next
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
                    _TRACE.record(("ord.release", self.engine.now,
                                   self.label, flow_id, tag, "stale"))
                self.deliver(state.buffer[tag][0])

    def active_flows(self) -> int:
        return len(self._flows)

    # -- main entry -----------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        info = packet.flowinfo
        if info is None or packet.kind is not PacketKind.DATA:
            self.deliver(packet)
            return
        tag = info.original_rfs(self.boost_factor) if info.retcnt \
            else info.rfs
        flow_id = packet.flow_id
        state = self._flows.get(flow_id)
        if state is not None and tag == state.expected:
            # In-order receive.  An empty buffer has no armed timer, and
            # deliver() may end the flow (completion calls flow_done).
            state.expected = expected = tag + self._step * packet.payload
            self.deliver(packet)
            if state.buffer:
                self._drain_buffer(state, flow_id)
            elif expected == self._final_expected:
                self._flows.pop(flow_id, None)
            return
        if state is None:
            state = self._flows[flow_id] = _FlowOrderState()
        if state.expected is None:
            # Still in Init: the flow's first packet has not been seen.
            if info.first:
                state.expected = tag
                self._deliver_in_order(packet, tag, state)
                self._drain_buffer(state, flow_id)
            else:
                # The first packet is missing: out-of-order from birth.
                self._buffer_early(packet, tag, state, flow_id)
        elif (tag - state.expected) * self._step > 0:
            self._buffer_early(packet, tag, state, flow_id)
        else:
            # Late packet: delayed re-transmission or duplicate of bytes
            # already released — pass it up immediately (§3.3.2, event 3).
            self.deliver(packet)

    # -- state transitions -------------------------------------------------------------

    def _deliver_in_order(self, packet: Packet, tag: int,
                          state: _FlowOrderState) -> None:
        state.expected = tag + self._step * packet.payload
        self.deliver(packet)
        self._check_flow_complete(packet.flow_id, state)

    def _check_flow_complete(self, flow_id: int,
                             state: _FlowOrderState) -> None:
        # Under SRPT the expectation hits exactly zero after the last
        # packet; transition back to "waiting for a new flow".
        if state.expected == self._final_expected and not state.buffer:
            state.stop_timer()
            self._flows.pop(flow_id, None)

    def _buffer_early(self, packet: Packet, tag: int,
                      state: _FlowOrderState, flow_id: int) -> None:
        if tag in state.buffer:
            return  # duplicate of an already-buffered early packet
        state.buffer[tag] = (packet, self.engine.now)
        self.packets_buffered += 1
        if _TRACE is not None and _TRACE.packets:
            _TRACE.record(("ord.hold", self.engine.now, self.label, flow_id,
                           tag))
        if state.timer is None:
            state.timer = Timer(self.engine, self._on_timeout, flow_id)
        if not state.timer.armed:
            state.timer.start(self.timeout_ns)

    def _drain_buffer(self, state: _FlowOrderState, flow_id: int) -> None:
        """Deliver buffered packets that are now contiguous (event 2)."""
        while state.expected in state.buffer:
            tag = state.expected
            packet, _ = state.buffer.pop(tag)
            if _TRACE is not None and _TRACE.packets:
                _TRACE.record(("ord.release", self.engine.now, self.label,
                               flow_id, tag, "drain"))
            self._deliver_in_order(packet, tag, state)
        live = self._flows.get(flow_id)
        if live is not state:
            return  # flow completed and was torn down during the drain
        if state.buffer:
            self._rearm(state)
        else:
            state.stop_timer()

    def _rearm(self, state: _FlowOrderState) -> None:
        """Re-arm the timeout, crediting the wait already served (§3.3.2)."""
        _, arrived = state.buffer[self._head(state.buffer)]
        remaining = self.timeout_ns - (self.engine.now - arrived)
        state.timer.start(max(1, remaining))

    def _on_timeout(self, flow_id: int) -> None:
        state = self._flows.get(flow_id)
        if state is None or not state.buffer:
            return
        self.timeouts_fired += 1
        # Release the contiguous run at the head of the out-of-order
        # buffer up to the next gap, and move the expectation past it so
        # the transport sees the loss and can fast-retransmit (event 4).
        tag = self._head(state.buffer)
        while True:
            packet, _ = state.buffer.pop(tag)
            if _TRACE is not None and _TRACE.packets:
                _TRACE.record(("ord.release", self.engine.now, self.label,
                               flow_id, tag, "timeout"))
            state.expected = tag + self._step * packet.payload
            self.deliver(packet)
            next_tag = state.expected
            if next_tag not in state.buffer:
                break
            tag = next_tag
        self._check_flow_complete(flow_id, state)
        live = self._flows.get(flow_id)
        if live is state and state.buffer:
            self._rearm(state)
