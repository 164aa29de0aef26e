"""Byte-bounded FIFO and ranked output queues."""

import pytest

from repro.core.flowinfo import FlowInfo
from repro.net.queues import DropTailQueue, RankedQueue
from tests.helpers import mk_data


def _marked(rank, payload=1000, seq=0, flow_id=1):
    packet = mk_data(flow_id=flow_id, seq=seq, payload=payload)
    packet.flowinfo = FlowInfo(rfs=rank)
    return packet


def test_droptail_fifo_order():
    queue = DropTailQueue(10_000)
    a, b = mk_data(seq=0), mk_data(seq=1000)
    queue.push(a)
    queue.push(b)
    assert queue.pop() is a
    assert queue.pop() is b


def test_droptail_byte_accounting():
    queue = DropTailQueue(10_000)
    packet = mk_data(payload=1000)
    queue.push(packet)
    assert queue.bytes == packet.wire_bytes
    queue.pop()
    assert queue.bytes == 0


def test_droptail_fits_respects_capacity():
    queue = DropTailQueue(1500)
    big = mk_data(payload=1400)   # 1440 wire bytes
    queue.push(big)
    assert not queue.fits(mk_data(payload=100))
    with pytest.raises(OverflowError):
        queue.push(mk_data(payload=100))


def test_droptail_free_bytes():
    queue = DropTailQueue(5000)
    assert queue.free_bytes == 5000
    queue.push(mk_data(payload=960))  # 1000 wire
    assert queue.free_bytes == 4000


def test_ecn_marks_above_threshold_only_capable_packets():
    queue = DropTailQueue(100_000, ecn_threshold_bytes=2000)
    filler_1 = mk_data(payload=1460)
    filler_2 = mk_data(payload=1460)
    queue.push(filler_1)
    queue.push(filler_2)  # occupancy 1500 -> below threshold at arrival
    capable = mk_data(payload=1000, ecn_capable=True)
    queue.push(capable)   # occupancy 3000 >= 2000 at arrival
    assert capable.ecn_ce
    not_capable = mk_data(payload=1000)
    queue.push(not_capable)
    assert not not_capable.ecn_ce
    assert queue.stats.ecn_marked == 1


def test_no_ecn_marking_when_disabled():
    queue = DropTailQueue(100_000)
    for _ in range(10):
        packet = mk_data(payload=1460, ecn_capable=True)
        queue.push(packet)
        assert not packet.ecn_ce


def test_ranked_pop_is_srpt_order():
    queue = RankedQueue(100_000)
    queue.push(_marked(30_000))
    queue.push(_marked(1_000))
    queue.push(_marked(20_000))
    assert queue.pop().flowinfo.rfs == 1_000
    assert queue.pop().flowinfo.rfs == 20_000
    assert queue.pop().flowinfo.rfs == 30_000


def test_ranked_peek_and_pop_tail():
    queue = RankedQueue(100_000)
    low, high = _marked(10), _marked(99_999)
    queue.push(low)
    queue.push(high)
    assert queue.tail_rank() == 99_999
    assert queue.pop_tail() is high
    assert queue.tail_rank() == 10
    assert queue.pop_tail() is low
    assert queue.tail_rank() is None


def test_ranked_byte_accounting_with_tail_pops():
    queue = RankedQueue(100_000)
    packets = [_marked(rank, payload=1000) for rank in (5, 3, 9)]
    for packet in packets:
        queue.push(packet)
    total = sum(packet.wire_bytes for packet in packets)
    assert queue.bytes == total
    dropped = queue.pop_tail()
    assert queue.bytes == total - dropped.wire_bytes


def test_ranked_overflow_raises():
    queue = RankedQueue(1000)
    queue.push(_marked(1, payload=900))
    with pytest.raises(OverflowError):
        queue.push(_marked(2, payload=900))


def test_ranked_ecn_marking():
    queue = RankedQueue(100_000, ecn_threshold_bytes=1000)
    queue.push(_marked(1, payload=1460))
    capable = _marked(2, payload=1000)
    capable.ecn_capable = True
    queue.push(capable)
    assert capable.ecn_ce


def test_stats_track_max_occupancy_and_counts():
    queue = DropTailQueue(100_000)
    queue.push(mk_data(payload=1460), now_ns=0)
    queue.push(mk_data(payload=1460), now_ns=10)
    queue.pop(now_ns=20)
    stats = queue.stats
    assert stats.enqueued == 2
    assert stats.dequeued == 1
    assert stats.max_bytes == 3000


def test_packets_snapshot():
    fifo = DropTailQueue(100_000)
    a, b = mk_data(seq=0), mk_data(seq=1000)
    fifo.push(a)
    fifo.push(b)
    assert fifo.packets() == [a, b]
    ranked = RankedQueue(100_000)
    ranked.push(_marked(7))
    ranked.push(_marked(3))
    assert [p.flowinfo.rfs for p in ranked.packets()] == [3, 7]
