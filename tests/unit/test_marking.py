"""Vertigo TX marking component (paper §3.1)."""

from repro.core.flowinfo import MarkingDiscipline, RETCNT_MAX
from repro.core import marking as marking_module
from repro.core.marking import MarkingComponent
from repro.net.packet import ack_packet
from tests.helpers import mk_data


def _srpt(boost_factor=2, **kwargs):
    component = MarkingComponent(discipline=MarkingDiscipline.SRPT,
                                 boost_factor=boost_factor, **kwargs)
    return component


def test_srpt_marks_remaining_flow_size():
    marking = _srpt()
    marking.register_flow(1, size=40_000)
    first = mk_data(flow_id=1, seq=0, payload=1460)
    marking.mark(first)
    assert first.flowinfo.rfs == 40_000
    assert first.flowinfo.first

    second = mk_data(flow_id=1, seq=1460, payload=1460)
    marking.mark(second)
    assert second.flowinfo.rfs == 40_000 - 1460
    assert not second.flowinfo.first


def test_last_packet_rfs_equals_payload():
    marking = _srpt()
    marking.register_flow(1, size=3000)
    marking.mark(mk_data(flow_id=1, seq=0, payload=1460))
    marking.mark(mk_data(flow_id=1, seq=1460, payload=1460))
    last = mk_data(flow_id=1, seq=2920, payload=80)
    marking.mark(last)
    assert last.flowinfo.rfs == 80  # paper: last packet RFS = payload


def test_retransmission_detected_and_boosted():
    marking = _srpt()
    marking.register_flow(1, size=40_000)
    marking.mark(mk_data(flow_id=1, seq=0, payload=1460))
    retx = mk_data(flow_id=1, seq=0, payload=1460)
    marking.mark(retx)
    assert retx.flowinfo.retcnt == 1
    assert retx.flowinfo.rfs == 20_000  # 40_000 rotated right once
    assert retx.flowinfo.original_rfs() == 40_000
    assert marking.retransmissions_detected == 1


def test_multiple_retransmissions_increment_retcnt():
    marking = _srpt()
    marking.register_flow(1, size=32_000)
    for expected_retcnt in range(4):
        packet = mk_data(flow_id=1, seq=0, payload=1460)
        marking.mark(packet)
        assert packet.flowinfo.retcnt == expected_retcnt
    assert packet.flowinfo.rfs == 32_000 >> 3


def test_retcnt_saturates_at_15():
    marking = _srpt()
    marking.register_flow(1, size=1 << 20)
    packet = None
    for _ in range(20):
        packet = mk_data(flow_id=1, seq=0, payload=1460)
        marking.mark(packet)
    assert packet.flowinfo.retcnt == RETCNT_MAX


def test_boost_factor_4_rotates_twice():
    marking = _srpt(boost_factor=4)
    marking.register_flow(1, size=40_000)
    marking.mark(mk_data(flow_id=1, seq=0, payload=1460))
    retx = mk_data(flow_id=1, seq=0, payload=1460)
    marking.mark(retx)
    assert retx.flowinfo.rfs == 10_000


def test_boosting_disabled_keeps_original_rfs():
    marking = MarkingComponent(boosting=False)
    marking.register_flow(1, size=40_000)
    marking.mark(mk_data(flow_id=1, seq=0, payload=1460))
    retx = mk_data(flow_id=1, seq=0, payload=1460)
    marking.mark(retx)
    assert retx.flowinfo.rfs == 40_000
    assert retx.flowinfo.retcnt == 0


def test_las_marks_attained_service():
    marking = MarkingComponent(discipline=MarkingDiscipline.LAS)
    marking.register_flow(1, size=None)  # LAS needs no size
    first = mk_data(flow_id=1, seq=0, payload=1460)
    marking.mark(first)
    assert first.flowinfo.rfs == 0
    assert first.flowinfo.first
    later = mk_data(flow_id=1, seq=14_600, payload=1460)
    marking.mark(later)
    assert later.flowinfo.rfs == 14_600


def test_srpt_requires_flow_size():
    marking = _srpt()
    try:
        marking.register_flow(1, size=None)
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("SRPT without size should be rejected")


def test_acks_are_marked_with_wire_size():
    from repro.core.flowinfo import FLOWINFO_WIRE_BYTES
    marking = _srpt()
    ack = ack_packet(2, 1, 7, ack_no=100)
    before = ack.wire_bytes
    marking.mark(ack)
    assert ack.flowinfo is not None
    assert ack.flowinfo.rfs == before  # ranked like a tiny final packet
    assert ack.wire_bytes == before + FLOWINFO_WIRE_BYTES


def test_unregistered_flow_marked_defensively():
    from repro.core.flowinfo import FLOWINFO_WIRE_BYTES
    marking = _srpt()
    packet = mk_data(flow_id=999, seq=0, payload=100)
    before = packet.wire_bytes
    marking.mark(packet)
    assert packet.flowinfo.rfs == before
    assert packet.wire_bytes == before + FLOWINFO_WIRE_BYTES


def test_marked_data_carries_flowinfo_wire_overhead():
    # Paper Fig. 3: the layer-3 flowinfo header costs 7 extra wire bytes.
    from repro.core.flowinfo import FLOWINFO_WIRE_BYTES
    marking = _srpt()
    marking.register_flow(1, size=10_000)
    packet = mk_data(flow_id=1, seq=0, payload=1000)
    before = packet.wire_bytes
    marking.mark(packet)
    assert packet.wire_bytes == before + FLOWINFO_WIRE_BYTES == before + 7


def test_flow_done_clears_state():
    marking = _srpt()
    marking.register_flow(1, size=4000)
    marking.mark(mk_data(flow_id=1, seq=0, payload=1460))
    marking.flow_done(1)
    # New flow with the same id starts fresh (no retransmission hit).
    marking.register_flow(1, size=4000)
    packet = mk_data(flow_id=1, seq=0, payload=1460)
    marking.mark(packet)
    assert packet.flowinfo.retcnt == 0


def test_flow_id3_is_three_bits():
    marking = _srpt()
    marking.register_flow(13, size=4000)
    packet = mk_data(flow_id=13, seq=0, payload=1460)
    marking.mark(packet)
    assert packet.flowinfo.flow_id3 == 13 & 0b111


def test_packets_marked_counter():
    marking = _srpt()
    marking.register_flow(1, size=4000)
    marking.mark(mk_data(flow_id=1, seq=0, payload=1000))
    marking.mark(mk_data(flow_id=1, seq=1000, payload=1000))
    assert marking.packets_marked == 2


def _remembered(marking):
    return sum(len(state.retcnt) for state in marking._flows.values())


def test_colliding_fingerprints_each_keep_their_own_copy(monkeypatch):
    # Two (flow, seq) keys with one header hash, hence one fingerprint:
    # the second first-transmission is a filter false positive and must
    # still store its copy, or the first flow's flow_done would take the
    # other's fingerprint away with it.
    monkeypatch.setattr(marking_module, "crc32", lambda data, prefix=0: 7)
    marking = _srpt()
    marking.register_flow(1, size=40_000)
    marking.register_flow(2, size=40_000)
    first = mk_data(flow_id=1, seq=0, payload=1460)
    marking.mark(first)
    collided = mk_data(flow_id=2, seq=0, payload=1460)
    marking.mark(collided)
    assert first.flowinfo.retcnt == collided.flowinfo.retcnt == 0
    assert marking.retransmissions_detected == 0
    assert len(marking._filter) == _remembered(marking) == 2

    marking.flow_done(2)
    assert len(marking._filter) == _remembered(marking) == 1
    retx = mk_data(flow_id=1, seq=0, payload=1460)
    marking.mark(retx)
    assert marking.retransmissions_detected == 1
    assert retx.flowinfo.retcnt == 1 and retx.flowinfo.rfs == 20_000
    assert len(marking._filter) == 1

    marking.flow_done(1)
    assert len(marking._filter) == _remembered(marking) == 0


def test_full_filter_forgets_instead_of_miscounting(monkeypatch):
    # 8 slots plus a 4-entry stash: later packets cannot be remembered.
    monkeypatch.setattr(marking_module, "FILTER_CAPACITY", 8)
    marking = MarkingComponent()
    marking.register_flow(1, size=1 << 20)
    for index in range(40):
        marking.mark(mk_data(flow_id=1, seq=index * 1460, payload=1460))
    assert 8 <= len(marking._filter) == _remembered(marking) <= 12
    forgotten = next(seq for seq in range(0, 40 * 1460, 1460)
                     if seq not in marking._flows[1].retcnt)
    again = mk_data(flow_id=1, seq=forgotten, payload=1460)
    marking.mark(again)
    assert again.flowinfo.retcnt == 0 and marking.retransmissions_detected == 0
    marking.flow_done(1)
    assert len(marking._filter) == 0
