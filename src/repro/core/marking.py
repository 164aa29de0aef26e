"""Vertigo TX-path marking component (paper §3.1).

Deployed as a transport-independent extension to the sender's network
stack.  For every outgoing data packet it:

1. detects re-transmissions with a cuckoo filter over a hash of the packet
   header (fast path: one probe that stores an unseen fingerprint),
   backed by an exact per-flow table (the "flow info hash table" of
   Figure 2) — the paper's two lookups per packet;
2. computes the packet's rank — under **SRPT**, the flow's remaining bytes
   including this packet (which requires the application-provided flow
   size); under **LAS** (flow aging, §4.3), the bytes the flow has already
   sent — and writes it into the 32-bit RFS field;
3. applies *boosting* to re-transmissions: ``retcnt`` is incremented and
   the RFS field right-rotated so the packet's priority rises, reversibly
   (§3.1.2).

ACKs and other non-data packets are tagged with their wire size, i.e.
treated like the final packet of a minimal flow, so the reverse path is
never starved by deflection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional
from zlib import crc32

from repro.analysis import sanitize as _sanitize
from repro.core.cuckoo import CuckooFilter
from repro.core.flowinfo import (
    FLOW_ID3_MASK,
    FLOWINFO_WIRE_BYTES,
    RETCNT_MAX,
    RFS_MASK,
    FlowInfo,
    MarkingDiscipline,
    boost_rfs,
)
from repro.net.packet import Packet, PacketKind

_SANITIZE = _sanitize.register(__name__)

#: Retransmission-filter slots per host: room for every packet a host
#: has in flight at once.
FILTER_CAPACITY = 1 << 15


@dataclass
class _FlowMarkState:
    size: Optional[int]          # advance flow size (None under LAS)
    retcnt: Dict[int, int] = field(default_factory=dict)  # seq -> retcnt
    #: CRC of ``"flow_id:"``, taken at the first mark; continued with the
    #: sequence number it is the CRC of ``"flow_id:seq"``.
    prefix: Optional[int] = None


class MarkingComponent:
    """Per-host sender-side packet marker."""

    def __init__(self, discipline: MarkingDiscipline = MarkingDiscipline.SRPT,
                 boost_factor: int = 2, boosting: bool = True,
                 seed: int = 0) -> None:
        self._srpt = discipline is MarkingDiscipline.SRPT
        self.boost_factor = boost_factor
        self.boosting = boosting
        self._filter = CuckooFilter(capacity=FILTER_CAPACITY, seed=seed)
        self._flows: Dict[int, _FlowMarkState] = {}
        self.packets_marked = 0
        self.retransmissions_detected = 0

    # -- flow lifecycle ---------------------------------------------------------

    def register_flow(self, flow_id: int, size: Optional[int]) -> None:
        """Register a new outgoing flow.

        ``size`` is the application-provided flow size; it may be ``None``
        under LAS, which needs no advance knowledge.
        """
        if self._srpt and size is None:
            raise ValueError("SRPT marking requires the flow size upfront")
        self._flows[flow_id] = _FlowMarkState(size)

    def flow_done(self, flow_id: int) -> None:
        """Drop per-flow state and evict its entries from the filter."""
        state = self._flows.pop(flow_id, None)
        if state is None:
            return
        prefix = state.prefix
        for seq in state.retcnt:
            self._filter.delete(crc32(str(seq).encode(), prefix))
        if _SANITIZE:
            remembered = sum(len(s.retcnt) for s in self._flows.values())
            _sanitize.check(
                len(self._filter) == remembered,
                "marking filter holds %d fingerprints for %d remembered "
                "(flow, seq) entries after flow %d finished",
                len(self._filter), remembered, flow_id)

    # -- marking -------------------------------------------------------------------

    def mark(self, packet: Packet) -> None:
        """Attach the flowinfo header (and its 7 wire bytes, Figure 3)."""
        if packet.kind is not PacketKind.DATA:
            packet.flowinfo = FlowInfo(rfs=min(packet.wire_bytes, RFS_MASK))
            packet.wire_bytes += FLOWINFO_WIRE_BYTES
            return
        flow_id = packet.flow_id
        state = self._flows.get(flow_id)
        if state is None:
            # Unregistered flow (defensive): rank by wire size.
            packet.flowinfo = FlowInfo(rfs=min(packet.wire_bytes, RFS_MASK))
            packet.wire_bytes += FLOWINFO_WIRE_BYTES
            return
        self.packets_marked += 1
        packet.wire_bytes += FLOWINFO_WIRE_BYTES
        seq = packet.seq
        # SRPT ranks by the flow's remaining bytes including this
        # packet, LAS by the bytes it has already sent.
        rank = min(state.size - seq if self._srpt else seq, RFS_MASK)
        prefix = state.prefix
        if prefix is None:
            prefix = state.prefix = crc32(f"{flow_id}:".encode())
        # CRC over the invariant header fields (paper: CRC + cuckoo).
        key = crc32(str(seq).encode(), prefix)
        # One filter probe settles the common case: an absent fingerprint
        # is stored on the spot and the packet is a first transmission.
        # A hit is resolved against the exact table.  ``retcnt`` holds
        # exactly the packets whose fingerprint the filter stores, so
        # flow_done deletes only fingerprints this flow put there.
        if self._filter.insert_if_absent(key):
            state.retcnt[seq] = 0
        elif seq in state.retcnt:
            self._mark_retransmission(packet, state, rank)
            return
        elif self._filter.insert(key):
            # False positive on a first transmission: the packet still
            # stores its own copy next to the one it collided with.
            state.retcnt[seq] = 0
        # else the filter is full and cannot remember this packet: a
        # re-transmission of it will be marked as a first transmission.
        packet.flowinfo = FlowInfo(rfs=rank, retcnt=0,
                                   flow_id3=flow_id & FLOW_ID3_MASK,
                                   first=seq == 0)

    def _mark_retransmission(self, packet: Packet, state: _FlowMarkState,
                             original: int) -> None:
        self.retransmissions_detected += 1
        seq = packet.seq
        retcnt = min(state.retcnt[seq] + 1, RETCNT_MAX)
        state.retcnt[seq] = retcnt
        wire_rfs = boost_rfs(original, retcnt, self.boost_factor) \
            if self.boosting else original
        packet.flowinfo = FlowInfo(
            rfs=wire_rfs,
            retcnt=retcnt if self.boosting else 0,
            flow_id3=packet.flow_id & FLOW_ID3_MASK,
            first=seq == 0)
