"""Simulated packets.

A :class:`Packet` models one wire-level datagram.  Data segments carry a
byte range ``[seq, seq + payload)`` of their flow; ACKs carry a cumulative
acknowledgement and congestion feedback (ECN echo for DCTCP, a remote
timestamp echo for Swift's RTT measurement).  Vertigo-marked packets
additionally carry a :class:`~repro.core.flowinfo.FlowInfo` header.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.core.flowinfo import FlowInfo

#: IP + transport header bytes charged to every packet on the wire.
HEADER_BYTES = 40
#: Wire size of a bare ACK.
ACK_WIRE_BYTES = HEADER_BYTES
#: Default maximum segment (payload) size in bytes.
DEFAULT_MSS = 1460

# Process-global uid source: uids are used only for identity (never for
# ordering or arithmetic), so sharing the counter across runs is harmless.
# Deliberately NOT checkpointed: a restore instead advances the
# watermark (advance_uid_watermark) past every uid alive in the
# snapshot, so identity stays unique without the counter value ever
# reaching a digest.
_packet_uid = itertools.count()  # noqa: VR004


def uid_watermark() -> int:
    """Next uid to be issued (burns one uid; identity-only, harmless)."""
    return next(_packet_uid)


def advance_uid_watermark(watermark: int) -> None:
    """Ensure future uids are >= ``watermark`` (checkpoint restore).

    Restored packets carry uids from the checkpointing process; new
    packets in this process must not collide with them or the ordering
    shim's release-exactly-once sets would see false duplicates.
    """
    global _packet_uid
    if watermark > next(_packet_uid):
        _packet_uid = itertools.count(watermark)


class PacketKind(enum.Enum):
    DATA = "data"
    ACK = "ack"


@dataclass(slots=True)
class Packet:
    """One simulated datagram."""

    src: int                       # source host id
    dst: int                       # destination host id
    flow_id: int                   # globally unique flow identifier
    kind: PacketKind
    seq: int = 0                   # first payload byte offset (DATA)
    payload: int = 0               # payload bytes (DATA)
    ack_no: int = 0                # cumulative ACK byte offset (ACK)
    wire_bytes: int = HEADER_BYTES

    # Congestion/benchmark feedback.
    ecn_capable: bool = False
    ecn_ce: bool = False           # congestion-experienced mark (DATA)
    ece: bool = False              # congestion echo on the ACK
    ts_echo: int = -1              # sender timestamp echoed by the ACK (ns)
    sent_at: int = -1              # transport tx timestamp for RTT (ns)
    tx_count: int = 1              # transmission attempt number (1 = first)

    # Vertigo.
    flowinfo: Optional[FlowInfo] = None

    # Path bookkeeping (metrics).
    hops: int = 0
    deflections: int = 0

    # Priority-class lane (0 = highest priority; assigned at the sending
    # host from the experiment's priority map) and PFC ingress-buffer
    # accounting: the gate this packet is charged against at its current
    # switch, and the bytes charged (0 = not charged).  Both stay inert
    # (None/0) when PFC is not configured.
    pclass: int = 0
    pfc_gate: Optional[object] = None
    pfc_held: int = 0

    uid: int = field(default_factory=lambda: next(_packet_uid))

    @property
    def end_seq(self) -> int:
        """One past the last payload byte carried by this segment."""
        return self.seq + self.payload

    def rank(self) -> int:
        """Scheduling rank for ranked queues: the on-wire RFS field.

        Packets without a flowinfo header (non-Vertigo traffic traversing a
        Vertigo queue in mixed deployments) rank by wire size, which treats
        them like a flow about to finish.
        """
        return self.flowinfo.rfs if self.flowinfo is not None \
            else self.wire_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.kind is PacketKind.DATA:
            core = f"seq={self.seq}+{self.payload}"
        else:
            core = f"ack={self.ack_no}"
        rfs = f" rfs={self.flowinfo.rfs}" if self.flowinfo else ""
        return (f"<Pkt {self.kind.value} f{self.flow_id} "
                f"{self.src}->{self.dst} {core}{rfs}>")


def data_packet(src: int, dst: int, flow_id: int, seq: int, payload: int,
                *, mss: int = DEFAULT_MSS, ecn_capable: bool = False,
                sent_at: int = -1, tx_count: int = 1) -> Packet:
    """Construct a data segment with the standard header overhead."""
    if payload <= 0 or payload > mss:
        raise ValueError(f"payload {payload} outside (0, {mss}]")
    return Packet(src=src, dst=dst, flow_id=flow_id, kind=PacketKind.DATA,
                  seq=seq, payload=payload,
                  wire_bytes=payload + HEADER_BYTES,
                  ecn_capable=ecn_capable, sent_at=sent_at,
                  tx_count=tx_count)


def ack_packet(src: int, dst: int, flow_id: int, ack_no: int, *,
               ece: bool = False, ts_echo: int = -1) -> Packet:
    """Construct a cumulative ACK for ``flow_id`` (src is the data receiver)."""
    return Packet(src=src, dst=dst, flow_id=flow_id, kind=PacketKind.ACK,
                  ack_no=ack_no, wire_bytes=ACK_WIRE_BYTES, ece=ece,
                  ts_echo=ts_echo)
