"""Property-based tests: the ordering shim never loses, duplicates (beyond
the network's own duplication), or mis-orders bytes — and releases what
a reference written from the paper's §3.3 releases, when it releases
it."""

from hypothesis import given, settings, strategies as st

from repro.core.flowinfo import (
    FlowInfo,
    MarkingDiscipline,
    boost_rfs,
    unboost_rfs,
)
from repro.core.ordering import OrderingComponent
from repro.sim.engine import Engine
from tests.helpers import mk_data

PAYLOAD = 1000


def _flow_packets(n_packets):
    size = n_packets * PAYLOAD
    packets = []
    for index in range(n_packets):
        seq = index * PAYLOAD
        packet = mk_data(flow_id=1, seq=seq, payload=PAYLOAD)
        packet.flowinfo = FlowInfo(rfs=size - seq, first=(seq == 0))
        packets.append(packet)
    return packets


@given(st.permutations(range(8)))
@settings(max_examples=60)
def test_any_permutation_without_loss_is_fully_restored(order):
    """With no drops, whatever the arrival order, delivery is in-order."""
    engine = Engine()
    delivered = []
    component = OrderingComponent(engine, delivered.append,
                                  timeout_ns=1_000_000)
    packets = _flow_packets(8)
    for index in order:
        component.on_packet(packets[index])
    engine.run()
    assert delivered == packets
    assert component.active_flows() == 0


@given(st.permutations(range(8)),
       st.sets(st.integers(0, 7), max_size=3))
@settings(max_examples=60)
def test_losses_never_block_forever_and_nothing_is_lost(order, lost):
    """Dropped packets stall delivery at most one timeout; every packet
    that arrived is eventually handed to the transport exactly once."""
    engine = Engine()
    delivered = []
    component = OrderingComponent(engine, delivered.append,
                                  timeout_ns=100_000)
    packets = _flow_packets(8)
    arrived = [packets[i] for i in order if i not in lost]
    for packet in arrived:
        component.on_packet(packet)
    engine.run()
    assert sorted(p.seq for p in delivered) \
        == sorted(p.seq for p in arrived)
    assert len(delivered) == len(arrived)
    assert engine.pending() == 0  # no timer leaks


@given(st.permutations(range(6)))
@settings(max_examples=40)
def test_released_sequence_is_monotone_between_timeouts(order):
    """Within each in-order run, seq numbers increase (SRPT tags fall)."""
    engine = Engine()
    delivered = []
    component = OrderingComponent(engine, delivered.append,
                                  timeout_ns=10_000_000)
    packets = _flow_packets(6)
    for index in order:
        component.on_packet(packets[index])
    engine.run()
    # No drops: strictly increasing seq overall.
    seqs = [p.seq for p in delivered]
    assert seqs == sorted(seqs)


# -- against a reference that un-rotates every tag ---------------------------

#: Arrivals land on ...001 ns and deadlines on ...501 (or one ns after a
#: deadline), so no arrival ever ties with a timer in the calendar.
SPACING = 1000
TIMEOUT = 3500


def _reference(arrivals, discipline, factor, timeout):
    """§3.3's state machine for one flow, stated once.

    ``arrivals`` is ``[(time, packet)]`` in time order.  Every tag is
    un-rotated (``retcnt`` left rotations, a no-op at zero).  Returns
    ``[(time, packet)]`` in release order.
    """
    srpt = discipline is MarkingDiscipline.SRPT
    released = []
    expected = None           # None = Init
    buffer = {}               # tag -> (packet, arrival time)
    deadline = None           # the reordering timer, None when idle

    def after(tag, packet):
        return tag - packet.payload if srpt else tag + packet.payload

    def is_early(tag):
        return tag < expected if srpt else tag > expected

    def head():
        return max(buffer) if srpt else min(buffer)

    def rearm(now):
        return max(now + 1, buffer[head()][1] + timeout)

    def release_in_order(now, tag, packet):
        """Deliver, then leave the flow if SRPT has counted down to 0."""
        nonlocal expected, deadline
        expected = after(tag, packet)
        released.append((now, packet))
        if srpt and expected == 0 and not buffer:
            expected, deadline = None, None
            return False
        return True

    def drain(now):
        nonlocal deadline
        live = True
        while live and expected in buffer:
            tag = expected
            packet, _ = buffer.pop(tag)
            live = release_in_order(now, tag, packet)
        if live:
            deadline = rearm(now) if buffer else None

    def fire(now):
        nonlocal expected, deadline
        deadline = None
        tag = head()
        while True:
            packet, _ = buffer.pop(tag)
            expected = after(tag, packet)
            released.append((now, packet))
            if expected not in buffer:
                break
            tag = expected
        if srpt and expected == 0 and not buffer:
            expected = None
        elif buffer:
            deadline = rearm(now)

    def hold(now, tag, packet):
        nonlocal deadline
        if tag in buffer:
            return            # duplicate of a held packet: dropped
        buffer[tag] = (packet, now)
        if deadline is None:
            deadline = now + timeout

    for now, packet in arrivals:
        while deadline is not None and deadline < now:
            fire(deadline)
        info = packet.flowinfo
        tag = unboost_rfs(info.rfs, info.retcnt, factor)
        if expected is None:
            if info.first:
                if release_in_order(now, tag, packet):
                    drain(now)
            else:
                hold(now, tag, packet)
        elif tag == expected:
            if release_in_order(now, tag, packet):
                drain(now)
        elif is_early(tag):
            hold(now, tag, packet)
        else:
            released.append((now, packet))   # late: passed straight up
    while deadline is not None:
        fire(deadline)
    return released


@st.composite
def _scenarios(draw):
    """One flow's arrivals: each packet arrives 0-3 times, any copy may
    be a boosted re-transmission, in any order."""
    n_packets = draw(st.integers(1, 6))
    discipline = draw(st.sampled_from(list(MarkingDiscipline)))
    factor = draw(st.sampled_from([1, 2, 4, 8]))
    size = n_packets * PAYLOAD
    copies = []
    for index in range(n_packets):
        seq = index * PAYLOAD
        original = size - seq \
            if discipline is MarkingDiscipline.SRPT else seq
        for retcnt in draw(st.lists(st.integers(0, 3), max_size=3)):
            packet = mk_data(flow_id=1, seq=seq, payload=PAYLOAD)
            packet.flowinfo = FlowInfo(
                rfs=boost_rfs(original, retcnt, factor), retcnt=retcnt,
                flow_id3=1, first=seq == 0)
            copies.append(packet)
    order = draw(st.permutations(copies))
    gaps = draw(st.lists(st.integers(1, 6), min_size=len(order),
                         max_size=len(order)))
    arrivals, now = [], 1
    for packet, gap in zip(order, gaps):
        now += gap * SPACING
        arrivals.append((now, packet))
    return discipline, factor, arrivals


@given(_scenarios())
@settings(max_examples=300, deadline=None)
def test_release_order_and_times_match_the_paper_reference(scenario):
    discipline, factor, arrivals = scenario
    engine = Engine()
    released = []
    component = OrderingComponent(
        engine, lambda packet: released.append((engine.now, packet)),
        timeout_ns=TIMEOUT, boost_factor=factor, discipline=discipline)
    for now, packet in arrivals:
        engine.schedule(now, component.on_packet, packet)
    engine.run()
    expected = _reference(arrivals, discipline, factor, TIMEOUT)
    assert [(t, p.uid) for t, p in released] \
        == [(t, p.uid) for t, p in expected]
