"""Packet construction."""

import dataclasses

import pytest

from repro.core.flowinfo import FlowInfo
from repro.net.packet import (
    ACK_WIRE_BYTES,
    HEADER_BYTES,
    MSS,
    MTU_WIRE_BYTES,
    Packet,
    PacketKind,
    ack_packet,
    data_packet,
)


def test_data_packet_wire_size_includes_headers():
    packet = data_packet(1, 2, 7, seq=0, payload=1460)
    assert packet.kind is PacketKind.DATA
    assert packet.wire_bytes == 1460 + HEADER_BYTES == MTU_WIRE_BYTES
    assert packet.end_seq == 1460


def test_data_packet_payload_bounds():
    with pytest.raises(ValueError):
        data_packet(1, 2, 7, seq=0, payload=0)
    with pytest.raises(ValueError):
        data_packet(1, 2, 7, seq=0, payload=2000)


def test_ack_packet_fields():
    ack = ack_packet(2, 1, 7, ack_no=2920, ece=True, ts_echo=555)
    assert ack.kind is PacketKind.ACK
    assert ack.wire_bytes == ACK_WIRE_BYTES
    assert ack.ack_no == 2920
    assert ack.ece and ack.ts_echo == 555


def test_uids_are_unique():
    a = data_packet(1, 2, 7, 0, 100)
    b = data_packet(1, 2, 7, 0, 100)
    assert a.uid != b.uid


def test_rank_uses_flowinfo_when_present():
    packet = data_packet(1, 2, 7, 0, 100)
    assert packet.rank() == packet.wire_bytes  # unmarked: ranks by size
    packet.flowinfo = FlowInfo(rfs=123456)
    assert packet.rank() == 123456


def test_ecn_fields_default_off():
    packet = data_packet(1, 2, 7, 0, 100)
    assert not packet.ecn_capable and not packet.ecn_ce
    marked = data_packet(1, 2, 7, 0, 100, ecn_capable=True)
    assert marked.ecn_capable


def _fields(packet):
    """Every field but the identity-only ``uid``."""
    return {field.name: getattr(packet, field.name)
            for field in dataclasses.fields(Packet) if field.name != "uid"}


@pytest.mark.parametrize("ecn_capable", [False, True])
def test_data_packet_equals_keyword_construction(ecn_capable):
    # The constructors bind fields positionally: a reordered Packet
    # field must fail here, not shift values silently.
    built = data_packet(3, 4, 9, 2920, 1000, ecn_capable, 777, 2)
    keyword = Packet(src=3, dst=4, flow_id=9, kind=PacketKind.DATA,
                     seq=2920, payload=1000, wire_bytes=1000 + HEADER_BYTES,
                     ecn_capable=ecn_capable, sent_at=777, tx_count=2)
    assert _fields(built) == _fields(keyword)


@pytest.mark.parametrize("ece", [False, True])
def test_ack_packet_equals_keyword_construction(ece):
    built = ack_packet(4, 3, 9, 3920, ece=ece, ts_echo=777)
    keyword = Packet(src=4, dst=3, flow_id=9, kind=PacketKind.ACK,
                     ack_no=3920, wire_bytes=ACK_WIRE_BYTES, ece=ece,
                     ts_echo=777)
    assert _fields(built) == _fields(keyword)


def test_data_packet_payload_edges():
    with pytest.raises(ValueError):
        data_packet(1, 2, 7, 0, 0)
    with pytest.raises(ValueError):
        data_packet(1, 2, 7, 0, MSS + 1)
    assert data_packet(1, 2, 7, 0, MSS).payload == MSS == 1460
