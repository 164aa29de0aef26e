"""Property-based tests: reliable delivery under arbitrary loss patterns.

The sender/receiver pair must deliver every byte exactly once, in order,
for any drop pattern that eventually relents — the core reliability
invariant all three congestion controls inherit from the base machinery.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine
from repro.transport.base import TransportConfig
from repro.transport.dctcp import DctcpSender
from repro.transport.reno import RenoSender
from repro.transport.swift import SwiftSender
from tests.unit.test_transport_base import loopback

FAST_RTO = TransportConfig(mss=1000, min_rto_ns=500_000, init_rto_ns=500_000,
                           swift_target_delay_ns=100_000)


@given(st.sets(st.integers(0, 20), max_size=8),
       st.sampled_from([RenoSender, DctcpSender, SwiftSender]))
@settings(max_examples=40, deadline=None)
def test_any_single_loss_pattern_still_delivers(loss_indices, sender_cls):
    engine = Engine()
    seen = {"count": 0}

    def drop(packet):
        index = seen["count"]
        seen["count"] += 1
        return index in loss_indices and packet.tx_count == 1

    size = 21 * 1000
    sender, receiver, metrics, _, _ = loopback(
        engine, size=size, drop=drop, config=FAST_RTO,
        sender_cls=sender_cls)
    sender.start()
    engine.run(until=5_000_000_000)
    assert receiver.completed
    assert receiver.rcv_nxt == size
    assert sender.completed


@given(st.floats(0.0, 0.3), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_random_loss_rate_eventually_completes(rate, seed):
    import random

    engine = Engine()
    rng = random.Random(seed)

    def drop(packet):
        return rng.random() < rate

    sender, receiver, _, _, _ = loopback(engine, size=10_000, drop=drop,
                                         config=FAST_RTO)
    sender.start()
    engine.run(until=60_000_000_000)
    assert receiver.completed


@given(st.permutations(range(8)))
@settings(max_examples=30, deadline=None)
def test_reordered_delivery_never_corrupts_stream(order):
    """Deliver the first window in an arbitrary order: the receiver must
    still account every byte exactly once."""
    engine = Engine()
    held = []

    def drop(packet):
        held.append(packet)
        return True  # capture everything; we re-deliver manually

    config = TransportConfig(mss=1000, init_cwnd=8.0)
    sender, receiver, _, _, _ = loopback(engine, size=8_000, drop=drop,
                                         config=config)
    sender.start()
    assert len(held) == 8
    for index in order:
        receiver.on_data(held[index])
    assert receiver.completed
    assert receiver.rcv_nxt == 8_000
