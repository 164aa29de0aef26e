"""Property-based tests: the receiver's cumulative ACK point is the
contiguous prefix of what arrived.

``FlowReceiver.on_data`` drains its out-of-order buffer in one sorted
pass.  The reference below does not buffer at all: it keeps every
interval that arrived and, whenever a data packet reaches past the ACK
point, extends that point through every interval that touches it.  An
analytic round (``on_analytic_bytes``) moves the point without a drain,
so buffered segments may sit below it until the next arrival — the
stale entries the sorted pass must still consume.
"""

from hypothesis import given, settings, strategies as st

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.transport.base import FlowReceiver
from tests.helpers import mk_data

PAYLOAD = 100
SEGMENTS = 10
SIZE = PAYLOAD * SEGMENTS
FLOW = 1


class _Host:
    host_id = 2

    def __init__(self):
        self.acks = []

    def send_packet(self, packet):
        self.acks.append((packet.ack_no, packet.ece))


class ReferenceReceiver:
    def __init__(self):
        self.arrived = []
        self.rcv_nxt = 0
        self.acks = []

    def on_data(self, seq, end, ce):
        self.arrived.append((seq, end))
        if end > self.rcv_nxt:
            grown = True
            while grown:
                grown = False
                for start, stop in self.arrived:
                    if start <= self.rcv_nxt < stop:
                        self.rcv_nxt = stop
                        grown = True
        self.acks.append((self.rcv_nxt, ce))

    def on_analytic_bytes(self, end):
        if self.rcv_nxt < SIZE:
            self.rcv_nxt = max(self.rcv_nxt, end)


_op = st.one_of(
    st.tuples(st.just("data"), st.integers(0, SEGMENTS - 1), st.booleans()),
    st.tuples(st.just("analytic"), st.integers(1, 2 * SEGMENTS)))


@given(st.lists(_op, max_size=40))
@settings(max_examples=300, deadline=None)
def test_ack_point_is_the_contiguous_prefix(program):
    metrics = MetricsCollector()
    metrics.flow_started(FLOW, 1, _Host.host_id, SIZE, 0)
    host = _Host()
    receiver = FlowReceiver(Engine(), host, FLOW, 1, SIZE, metrics)
    reference = ReferenceReceiver()
    for op in program:
        if op[0] == "data":
            _, index, ce = op
            packet = mk_data(flow_id=FLOW, seq=index * PAYLOAD,
                             payload=PAYLOAD)
            packet.ecn_ce = ce
            drains = packet.end_seq > receiver.rcv_nxt
            receiver.on_data(packet)
            reference.on_data(packet.seq, packet.end_seq, ce)
            if drains:  # what stays buffered lies beyond the ACK point
                assert all(seq > receiver.rcv_nxt
                           for seq in receiver._ooo or ())
        else:
            # Analytic rounds end half a segment off the grid too.
            end = op[1] * PAYLOAD // 2
            receiver.on_analytic_bytes(end)
            reference.on_analytic_bytes(end)
        assert receiver.rcv_nxt == reference.rcv_nxt
        assert host.acks == reference.acks
        assert receiver.completed == (reference.rcv_nxt >= SIZE)
        assert metrics.flows[FLOW].bytes_delivered \
            == min(reference.rcv_nxt, SIZE)
