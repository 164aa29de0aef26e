"""End-host stack composition."""

from repro.host.host import Host, HostStackConfig
from repro.metrics.collector import MetricsCollector
from repro.net.link import Link
from repro.net.packet import PacketKind, ack_packet
from repro.sim.engine import Engine
from repro.transport.dctcp import DctcpSender
from repro.transport.reno import RenoSender
from tests.helpers import SinkDevice, mk_data


def _host(engine, *, vertigo=False, host_id=1, **stack_kwargs):
    stack = HostStackConfig(transport_cls=RenoSender,
                            vertigo_marking=vertigo,
                            vertigo_ordering=vertigo, **stack_kwargs)
    metrics = MetricsCollector()
    host = Host(engine, host_id, stack, metrics)
    sink = SinkDevice("tor")
    host.attach(Link(engine, 10 ** 9, 1_000, sink, 0))
    return host, sink, metrics


def test_plain_host_has_no_vertigo_components():
    engine = Engine()
    host, _, _ = _host(engine, vertigo=False)
    assert host.marking is None and host.ordering is None


def test_vertigo_host_has_both_components():
    engine = Engine()
    host, _, _ = _host(engine, vertigo=True)
    assert host.marking is not None and host.ordering is not None


def test_send_packet_marks_and_transmits():
    engine = Engine()
    host, sink, _ = _host(engine, vertigo=True)
    host.open_sender(1, dst=2, size=10_000)
    packet = mk_data(flow_id=1, seq=0, payload=1000, src=1, dst=2)
    host.send_packet(packet)
    engine.run()
    assert sink.received == [packet]
    assert packet.flowinfo is not None
    assert packet.flowinfo.rfs == 10_000


def test_nic_overflow_counted(monkeypatch):
    monkeypatch.setattr(Host, "NIC_BUFFER_BYTES", 2000)
    engine = Engine()
    host, _, metrics = _host(engine)
    for _ in range(5):
        host.send_packet(mk_data(payload=1460, src=1, dst=2))
    assert metrics.counters.drops["host_nic_overflow"] >= 3


def test_receive_data_counts_delivery_and_hops():
    engine = Engine()
    host, _, metrics = _host(engine)
    host.open_receiver(1, peer=2, size=10_000)
    packet = mk_data(flow_id=1, seq=0, payload=1000, src=2, dst=1)
    packet.hops = 3
    host.receive(packet, 0)
    assert metrics.counters.delivered == 1
    assert metrics.counters.hops_delivered == 3


def test_receive_ack_routed_to_sender():
    engine = Engine()
    host, _, _ = _host(engine)
    sender = host.open_sender(1, dst=2, size=10_000)
    sender.start()
    engine.run(until=1_000_000)  # drain the initial window to the wire
    before = sender.snd_una
    host.receive(ack_packet(2, 1, 1, ack_no=1460), 0)
    assert sender.snd_una == 1460 > before


def test_ack_for_unknown_flow_ignored():
    engine = Engine()
    host, _, _ = _host(engine)
    host.receive(ack_packet(2, 1, 99, ack_no=100), 0)  # no crash


def test_sender_done_cleans_marking_state():
    engine = Engine()
    host, _, _ = _host(engine, vertigo=True)
    host.open_sender(1, dst=2, size=10_000)
    assert 1 in host.senders
    host.sender_done(1)
    assert 1 not in host.senders


def test_open_receiver_idempotent():
    engine = Engine()
    host, _, _ = _host(engine)
    first = host.open_receiver(1, peer=2, size=1000)
    second = host.open_receiver(1, peer=2, size=1000)
    assert first is second


def test_completed_flow_bypasses_ordering():
    engine = Engine()
    host, sink, _ = _host(engine, vertigo=True)
    receiver = host.open_receiver(1, peer=2, size=1000)
    from repro.core.flowinfo import FlowInfo
    packet = mk_data(flow_id=1, seq=0, payload=1000, src=2, dst=1)
    packet.flowinfo = FlowInfo(rfs=1000, first=True)
    host.receive(packet, 0)
    assert receiver.completed
    # A straggling duplicate must not re-create ordering state.
    dup = mk_data(flow_id=1, seq=0, payload=1000, src=2, dst=1)
    dup.flowinfo = FlowInfo(rfs=1000, first=True)
    host.receive(dup, 0)
    assert host.ordering.active_flows() == 0


def test_dctcp_stack_is_ecn_capable_on_wire():
    engine = Engine()
    stack = HostStackConfig(transport_cls=DctcpSender)
    metrics = MetricsCollector()
    host = Host(engine, 1, stack, metrics)
    sink = SinkDevice("tor")
    host.attach(Link(engine, 10 ** 9, 1_000, sink, 0))
    sender = host.open_sender(1, dst=2, size=5000)
    sender.start()
    engine.run()
    data = [p for p in sink.received if p.kind is PacketKind.DATA]
    assert data and all(p.ecn_capable for p in data)
