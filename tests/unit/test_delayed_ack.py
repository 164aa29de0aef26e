"""Delayed ACKs and NewReno partial-ACK recovery."""

from repro.net.packet import PacketKind
from repro.sim.engine import Engine
from repro.transport.base import DELAYED_ACK_TIMEOUT_NS, TransportConfig
from tests.unit.test_transport_base import loopback


def test_per_packet_acks_by_default():
    engine = Engine()
    sender, receiver, _, _, dst = loopback(engine, size=10_000)
    sender.start()
    engine.run()
    data_count = 10_000 // 1460 + 1
    acks = [p for p in dst.sent if p.kind is PacketKind.ACK]
    assert len(acks) == data_count


def test_delayed_ack_halves_ack_count():
    engine = Engine()
    config = TransportConfig(delayed_ack=True)
    sender, receiver, _, _, dst = loopback(engine, size=29_200,
                                           config=config)
    sender.start()
    engine.run()
    assert receiver.completed
    acks = [p for p in dst.sent if p.kind is PacketKind.ACK]
    # 20 segments -> about 10 coalesced ACKs (+1 for completion flush).
    assert len(acks) <= 12


def test_delayed_ack_timer_flushes_odd_segment():
    engine = Engine()
    config = TransportConfig(delayed_ack=True, init_cwnd=1.0)
    sender, receiver, _, _, dst = loopback(engine, size=100_000,
                                           config=config)
    sender.start()
    # One segment in flight: it is held for the timeout, and then the
    # delayed-ACK timer must fire so the sender is not stalled until RTO.
    engine.run(until=DELAYED_ACK_TIMEOUT_NS)
    assert not dst.sent and sender.snd_una == 0
    engine.run(until=2 * DELAYED_ACK_TIMEOUT_NS)
    acks = [p for p in dst.sent if p.kind is PacketKind.ACK]
    assert acks, "delayed-ACK timer never flushed"
    assert sender.snd_una > 0


def test_delayed_ack_immediate_on_out_of_order():
    engine = Engine()
    lost = {1460}

    def drop(packet):
        if packet.kind is PacketKind.DATA and packet.seq in lost \
                and packet.tx_count == 1:
            lost.discard(packet.seq)
            return True
        return False

    config = TransportConfig(delayed_ack=True)
    sender, receiver, metrics, _, dst = loopback(engine, size=30_000,
                                                 drop=drop, config=config)
    sender.start()
    engine.run()
    assert receiver.completed
    # Fast retransmit still worked (completion well under the RTO).
    assert metrics.flows[7].fct_ns < config.min_rto_ns


def test_delayed_ack_flushes_on_ce_change():
    engine = Engine()
    state = {"count": 0}

    def marker(packet):
        # Mark exactly the 3rd data segment CE.
        if packet.kind is PacketKind.DATA:
            state["count"] += 1
            if state["count"] == 3 and packet.ecn_capable:
                packet.ecn_ce = True
        return False

    from repro.transport.dctcp import DctcpSender

    config = TransportConfig(delayed_ack=True)
    sender, receiver, _, _, dst = loopback(engine, size=14_600,
                                           drop=marker, config=config,
                                           sender_cls=DctcpSender)
    sender.start()
    engine.run()
    assert receiver.completed
    ece_acks = [p for p in dst.sent
                if p.kind is PacketKind.ACK and p.ece]
    assert ece_acks, "CE mark was never echoed"
    clean_acks = [p for p in dst.sent
                  if p.kind is PacketKind.ACK and not p.ece]
    assert clean_acks, "unmarked traffic must not echo ECE"


def test_newreno_partial_ack_retransmits_next_hole():
    engine = Engine()
    lost = {1460, 4380}  # two holes in the first window

    def drop(packet):
        if packet.kind is PacketKind.DATA and packet.seq in lost \
                and packet.tx_count == 1:
            lost.discard(packet.seq)
            return True
        return False

    config = TransportConfig(min_rto_ns=50_000_000,
                             init_rto_ns=50_000_000)
    sender, receiver, metrics, _, _ = loopback(engine, size=30_000,
                                               drop=drop, config=config)
    sender.start()
    engine.run()
    assert receiver.completed
    # Both holes repaired without any RTO (huge RTO would dominate FCT).
    assert metrics.flows[7].fct_ns < 10_000_000
    assert metrics.counters.retransmissions == 2
