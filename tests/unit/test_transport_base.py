"""Sliding-window sender / cumulative-ACK receiver machinery.

Uses a loopback harness: sender and receiver host stubs wired by a
configurable channel (delay, per-packet drop hooks) so loss and
reordering can be injected precisely.
"""

from typing import Callable, List, Optional

from repro.metrics.collector import MetricsCollector
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine
from repro.transport.base import FlowReceiver, FlowSender, TransportConfig
from repro.transport.reno import RenoSender


class StubHost:
    """Minimal host: forwards stack egress over a test channel."""

    def __init__(self, engine: Engine, host_id: int) -> None:
        self.engine = engine
        self.host_id = host_id
        self.channel: Optional[Callable[[Packet], None]] = None
        self.sent: List[Packet] = []

    def send_packet(self, packet: Packet) -> None:
        self.sent.append(packet)
        if self.channel is not None:
            self.channel(packet)


def loopback(engine: Engine, *, delay_ns: int = 10_000,
             drop: Optional[Callable[[Packet], bool]] = None,
             size: int = 20_000, config: Optional[TransportConfig] = None,
             sender_cls=RenoSender):
    """Wire a sender at host 1 and receiver at host 2 through a channel."""
    metrics = MetricsCollector()
    src, dst = StubHost(engine, 1), StubHost(engine, 2)
    metrics.flow_started(7, 1, 2, size, 0)
    config = config or TransportConfig()
    sender = sender_cls(engine, src, 7, 2, size, config, metrics)
    receiver = FlowReceiver(engine, dst, 7, 1, size, metrics,
                            config=config)

    def channel_from_src(packet: Packet) -> None:
        if drop is not None and drop(packet):
            return
        engine.schedule(delay_ns, receiver.on_data, packet)

    def channel_from_dst(packet: Packet) -> None:
        engine.schedule(delay_ns, sender.on_ack, packet)

    src.channel = channel_from_src
    dst.channel = channel_from_dst
    return sender, receiver, metrics, src, dst


def test_lossless_transfer_completes():
    engine = Engine()
    sender, receiver, metrics, src, _ = loopback(engine, size=20_000)
    sender.start()
    engine.run()
    assert receiver.completed
    assert sender.completed
    assert metrics.flows[7].completed
    assert metrics.counters.retransmissions == 0


def test_initial_window_limits_first_burst():
    engine = Engine()
    sender, _, _, src, _ = loopback(engine, size=1_000_000)
    sender.cwnd = 4.0
    sender.start()
    assert len(src.sent) == 4  # exactly the initial window, before any ACK


def test_segments_are_mss_sized_with_small_tail():
    engine = Engine()
    sender, _, _, src, _ = loopback(engine, size=3_000)
    sender.start()
    engine.run()
    data = [p for p in src.sent if p.kind is PacketKind.DATA]
    assert [p.payload for p in data] == [1460, 1460, 80]


def test_single_loss_recovered_by_fast_retransmit():
    engine = Engine()
    lost = {1460}  # drop the second segment once

    def drop(packet: Packet) -> bool:
        if packet.kind is PacketKind.DATA and packet.seq in lost \
                and packet.tx_count == 1:
            lost.discard(packet.seq)
            return True
        return False

    sender, receiver, metrics, _, _ = loopback(engine, size=30_000,
                                               drop=drop)
    sender.start()
    engine.run()
    assert receiver.completed
    assert metrics.counters.retransmissions == 1
    # Fast retransmit, not an RTO: completion well before min RTO.
    assert metrics.flows[7].fct_ns < TransportConfig().min_rto_ns


def test_loss_without_fast_retransmit_needs_rto():
    engine = Engine()
    lost = {1460}

    def drop(packet: Packet) -> bool:
        if packet.kind is PacketKind.DATA and packet.seq in lost \
                and packet.tx_count == 1:
            lost.discard(packet.seq)
            return True
        return False

    config = TransportConfig(fast_retransmit=False,
                             min_rto_ns=5_000_000,
                             init_rto_ns=5_000_000)
    sender, receiver, metrics, _, _ = loopback(engine, size=30_000,
                                               drop=drop, config=config)
    sender.start()
    engine.run()
    assert receiver.completed
    assert metrics.flows[7].fct_ns >= 5_000_000  # paid a full RTO


def test_tail_loss_recovered_by_rto():
    engine = Engine()

    def drop(packet: Packet) -> bool:
        # Drop the very last segment's first transmission: no dupacks.
        return (packet.kind is PacketKind.DATA and packet.tx_count == 1
                and packet.end_seq == 20_000)

    config = TransportConfig(min_rto_ns=2_000_000, init_rto_ns=2_000_000)
    sender, receiver, metrics, _, _ = loopback(engine, size=20_000,
                                               drop=drop, config=config)
    sender.start()
    engine.run()
    assert receiver.completed
    assert metrics.counters.retransmissions >= 1


def test_every_packet_dropped_then_released_still_completes():
    engine = Engine()
    state = {"drop_all": True}

    def drop(packet: Packet) -> bool:
        return state["drop_all"]

    config = TransportConfig(min_rto_ns=1_000_000, init_rto_ns=1_000_000)
    sender, receiver, _, _, _ = loopback(engine, size=5_000, drop=drop,
                                         config=config)
    sender.start()
    engine.run(until=3_500_000)
    assert not receiver.completed
    state["drop_all"] = False
    engine.run()
    assert receiver.completed


def test_rto_backoff_doubles():
    engine = Engine()
    drops: List[int] = []

    def drop(packet: Packet) -> bool:
        if packet.kind is PacketKind.DATA:
            drops.append(engine.now)
            return True
        return False

    config = TransportConfig(min_rto_ns=1_000_000, init_rto_ns=1_000_000)
    sender, _, _, _, _ = loopback(engine, size=1_000, drop=drop,
                                  config=config)
    sender.start()
    engine.run(until=20_000_000)
    gaps = [b - a for a, b in zip(drops, drops[1:])]
    assert gaps[0] >= 1_000_000
    assert gaps[1] >= 2 * gaps[0] * 0.99  # exponential backoff


def test_receiver_reorder_buffer_delivers_all_bytes():
    engine = Engine()
    metrics = MetricsCollector()
    dst = StubHost(engine, 2)
    metrics.flow_started(7, 1, 2, 4_000, 0)
    receiver = FlowReceiver(engine, dst, 7, 1, 4_000, metrics)
    from tests.helpers import mk_data
    segs = [mk_data(flow_id=7, seq=s, payload=1000, src=1, dst=2)
            for s in (0, 1000, 2000, 3000)]
    receiver.on_data(segs[0])
    receiver.on_data(segs[2])          # out of order
    assert receiver.rcv_nxt == 1000    # holds at the gap
    receiver.on_data(segs[1])
    assert receiver.rcv_nxt == 3000    # drained through the buffer
    receiver.on_data(segs[3])
    assert receiver.completed
    assert metrics.counters.reordered_arrivals == 1


def test_receiver_acks_echo_ecn_and_timestamp():
    engine = Engine()
    metrics = MetricsCollector()
    dst = StubHost(engine, 2)
    receiver = FlowReceiver(engine, dst, 7, 1, 10_000, metrics)
    from tests.helpers import mk_data
    packet = mk_data(flow_id=7, seq=0, payload=1000, src=1, dst=2)
    packet.ecn_ce = True
    packet.sent_at = 123
    receiver.on_data(packet)
    ack = dst.sent[-1]
    assert ack.kind is PacketKind.ACK
    assert ack.ece and ack.ts_echo == 123
    assert ack.ack_no == 1000


def test_duplicate_data_reacked_not_recounted():
    engine = Engine()
    metrics = MetricsCollector()
    metrics.flow_started(7, 1, 2, 2_000, 0)
    dst = StubHost(engine, 2)
    receiver = FlowReceiver(engine, dst, 7, 1, 2_000, metrics)
    from tests.helpers import mk_data
    packet = mk_data(flow_id=7, seq=0, payload=1000, src=1, dst=2)
    receiver.on_data(packet)
    dup = mk_data(flow_id=7, seq=0, payload=1000, src=1, dst=2)
    receiver.on_data(dup)
    assert receiver.rcv_nxt == 1000
    assert dst.sent[-1].ack_no == 1000  # still cumulative-ACKed


def test_rtt_estimator_from_timestamp_echo():
    engine = Engine()
    sender, receiver, _, _, _ = loopback(engine, size=2_000,
                                         delay_ns=50_000)
    sender.start()
    engine.run()
    assert sender.srtt_ns is not None
    assert 90_000 <= sender.srtt_ns <= 110_000  # ~2x one-way delay


def test_sender_stops_timers_on_completion():
    engine = Engine()
    sender, _, _, _, _ = loopback(engine, size=1_000)
    sender.start()
    engine.run()
    assert sender.completed
    assert not sender._rto_timer.armed
    assert engine.pending() == 0
