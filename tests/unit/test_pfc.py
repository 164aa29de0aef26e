"""PFC gates, class lanes, and DCQCN: the lossless-fabric unit surface."""

import pytest

from repro.forwarding.ecmp import EcmpPolicy
from repro.host.host import HostStackConfig
from repro.metrics.collector import MetricsCollector
from repro.net.builder import NetworkParams, build_network
from repro.net.packet import data_packet
from repro.net.pfc import (
    MTU_WIRE_BYTES,
    PfcConfig,
    PfcController,
    PfcGate,
    resolve_thresholds,
)
from repro.net.queues import ClassLaneQueue, DropTailQueue, RankedQueue
from repro.net.topology import LeafSpine
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.transport.base import MAX_CWND, TransportConfig
from repro.transport.dcqcn import ALPHA_UNIT, DcqcnSender
from repro.transport.reno import RenoSender
from tests.unit.test_transport_base import StubHost


# -- PfcConfig ----------------------------------------------------------------


def test_default_config_is_unconfigured():
    config = PfcConfig()
    assert not config.configured
    assert PfcConfig(num_classes=2, priority_map=(0, 1)).configured
    assert PfcConfig(enabled=True).configured


def test_config_validation():
    with pytest.raises(ValueError):
        PfcConfig(num_classes=0)
    with pytest.raises(ValueError):
        PfcConfig(priority_map=())
    with pytest.raises(ValueError):
        PfcConfig(num_classes=2, priority_map=(0, 2))
    with pytest.raises(ValueError):
        PfcConfig(xoff_bytes=1000, xon_bytes=2000)
    with pytest.raises(ValueError):
        PfcConfig(headroom_bytes=-1)


def test_resolve_thresholds_auto_math():
    config = PfcConfig(enabled=True, num_classes=2, priority_map=(0, 1))
    xoff, xon, headroom = resolve_thresholds(
        config, buffer_bytes=30_000, rate_bps=10_000_000_000,
        delay_ns=1_000)
    assert xoff == 30_000 // 4
    assert xon == xoff // 2
    # 2 x one-way BDP + 2 MTU, all-integer.
    assert headroom == 2 * (10_000_000_000 * 1_000 // 8_000_000_000) \
        + 2 * MTU_WIRE_BYTES


def test_resolve_thresholds_honours_zero_headroom():
    config = PfcConfig(enabled=True, xoff_bytes=5_000, xon_bytes=2_000,
                       headroom_bytes=0)
    assert resolve_thresholds(config, 30_000, 10**9, 1_000) \
        == (5_000, 2_000, 0)


# -- PfcGate state machine ----------------------------------------------------


class StubPort:
    """Records pfc_hold calls; enough Port surface for a gate."""

    def __init__(self):
        self.holds = []
        self.link = None

    def pfc_hold(self, pclass, hold):
        self.holds.append((pclass, hold))


class StubNetwork:
    fidelity = None


def _gate(engine, xoff=3000, xon=1000, headroom=2000):
    port = StubPort()
    gate = PfcGate(engine, StubNetwork(), "leaf0", 0, 0, port, "spine0",
                   delay_ns=100, xoff=xoff, xon=xon, headroom=headroom)
    return gate, port


def _packet(payload=1460):  # wire size 1500 with headers
    packet = data_packet(1, 2, 7, seq=0, payload=payload)
    return packet


def test_gate_pauses_at_xoff_and_resumes_at_xon():
    engine = Engine()
    gate, port = _gate(engine)
    first, second = _packet(), _packet()
    assert gate.admit(first.wire_bytes)
    gate.charge(first)
    assert not gate.paused  # below XOFF
    assert gate.admit(second.wire_bytes)
    gate.charge(second)
    assert gate.paused and gate.pause_events == 1  # crossed XOFF
    engine.run()
    assert port.holds == [(0, True)]  # PAUSE after propagation delay
    gate.release(first)
    # Hysteresis: occupancy is between XON and XOFF, still paused.
    assert gate.paused
    gate.release(second)
    assert not gate.paused
    engine.run()
    assert port.holds == [(0, True), (0, False)]
    assert gate.occupancy == 0
    assert gate.pause_time_ns(engine.now) == gate.pause_ns


def test_gate_admits_into_headroom_then_drops():
    engine = Engine()
    gate, _ = _gate(engine, xoff=3000, xon=1500, headroom=2000)
    packets = [_packet() for _ in range(3)]
    for packet in packets[:2]:
        assert gate.admit(packet.wire_bytes)
        gate.charge(packet)
    assert gate.paused
    # Above XOFF: one more fits in headroom (3000 + 2000 = 5000) ...
    assert gate.admit(packets[2].wire_bytes)
    gate.charge(packets[2])
    # ... the next does not.
    overflow = _packet()
    assert not gate.admit(overflow.wire_bytes)
    assert gate.headroom_drops == 1


def test_zero_headroom_drops_every_post_xoff_arrival():
    engine = Engine()
    gate, _ = _gate(engine, xoff=3000, xon=1500, headroom=0)
    first, second = _packet(), _packet()
    gate.charge(first)
    # The crossing packet is always admitted (it triggers the pause) ...
    assert gate.admit(second.wire_bytes)
    gate.charge(second)
    assert gate.paused
    # ... but with zero headroom nothing after it is.
    assert not gate.admit(_packet().wire_bytes)
    assert gate.headroom_drops == 1


def test_release_clears_packet_charge_fields():
    engine = Engine()
    gate, _ = _gate(engine)
    packet = _packet()
    gate.charge(packet)
    assert packet.pfc_gate is gate
    assert packet.pfc_held == packet.wire_bytes
    gate.release(packet)
    assert packet.pfc_gate is None and packet.pfc_held == 0


# -- the deadlock verdict -----------------------------------------------------
#
# Hand-built states on a 2-spine, 2-leaf fabric with two classes: packets
# are charged to a gate and queued at its switch without a transmitter
# ever being kicked, then the engine delivers the PAUSE frames.  The
# deadlock lives on class 1, so a holder looked up without its class
# (class 0's idle gate) finds nothing.  Each test kills a recorded
# mutant of PfcController.deadlocked: the cycle test "holder looked up
# without its class"; the unheld-lane test "some byte held" for "every
# byte" and "single peel pass" (the waiting gate is two peels from the
# byte that moves); the serializing test "serializing bytes ignored"
# and "single peel pass"; the RESUME test "holder's own state ignored".


def _fabric():
    engine = Engine()
    config = PfcConfig(enabled=True, num_classes=2, priority_map=(0, 1),
                       xoff_bytes=3_000, xon_bytes=1_500)
    network = build_network(
        engine, LeafSpine(2, 2, 1), NetworkParams(), MetricsCollector(),
        HostStackConfig(transport_cls=RenoSender),
        lambda switch, rng: EcmpPolicy(switch, rng), RngRegistry(1),
        pfc=config)
    pfc = PfcController(engine, config, network)
    pfc.install()
    return engine, network, pfc


def _gate_at(network, upstream, node, pclass=1):
    """The ``pclass`` gate at ``node`` charging what ``upstream`` sends."""
    in_port = network.links[(upstream, node)].dst_port
    return network.switches[node].pfc_gates[in_port][pclass]


def _park(network, gate, toward=None, pclass=1):
    """Charge a 1500-byte packet to ``gate``; queue it at the gate's
    switch on the port toward ``toward`` (None: it is serializing)."""
    packet = _classed(pclass, payload=1460)
    gate.charge(packet)
    if toward is not None:
        network.tx_ports[(gate.node, toward)].queue.push(packet)


def _cycle_with_a_waiter():
    """leaf0 and spine0 each hold the other's class-1 lane (both gates
    at XOFF), and a gate at leaf0 fed by spine1 waits behind the cycle."""
    engine, network, pfc = _fabric()
    at_leaf = _gate_at(network, "spine0", "leaf0")
    at_spine = _gate_at(network, "leaf0", "spine0")
    waiter = _gate_at(network, "spine1", "leaf0")
    for _ in range(2):
        _park(network, at_leaf, toward="spine0")
        _park(network, at_spine, toward="leaf0")
    _park(network, waiter, toward="spine0")        # below XOFF
    return engine, network, pfc, at_leaf


def test_deadlocked_cycle_and_its_waiter_are_reported():
    engine, _, pfc, _ = _cycle_with_a_waiter()
    engine.run()                                    # PAUSEs land
    assert len(pfc.deadlocked()) == 3
    assert pfc.summary(engine.now)["deadlocks"] == [
        ["leaf0", "spine0", 1, 0],
        ["spine0", "leaf0", 1, 0],
        ["spine1", "leaf0", 1, None],
    ]


def test_a_byte_in_an_unheld_lane_breaks_the_deadlock():
    engine, network, pfc, at_leaf = _cycle_with_a_waiter()
    _park(network, at_leaf, toward="h0")            # host lanes never held
    engine.run()
    assert pfc.deadlocked() == []
    assert "deadlocks" not in pfc.summary(engine.now)


def test_a_serializing_byte_breaks_the_deadlock():
    engine, network, pfc, at_leaf = _cycle_with_a_waiter()
    _park(network, at_leaf)                         # charged, not queued
    engine.run()
    assert pfc.deadlocked() == []
    assert "deadlocks" not in pfc.summary(engine.now)


def test_a_resume_on_the_wire_breaks_the_deadlock():
    engine, network, pfc, _ = _cycle_with_a_waiter()
    engine.run()
    at_spine = _gate_at(network, "leaf0", "spine0")
    at_spine._resume()               # leaf0's lane is held until it lands
    assert pfc.deadlocked() == []


# -- ClassLaneQueue -----------------------------------------------------------


def _lane_queue(n=2, capacity=10_000, cls=DropTailQueue):
    return ClassLaneQueue(cls(capacity) for _ in range(n))


def _classed(pclass, payload=100):
    packet = data_packet(1, 2, 7, seq=0, payload=payload)
    packet.pclass = pclass
    return packet


def test_lanes_admit_and_pop_in_strict_priority():
    queue = _lane_queue()
    low, high = _classed(1), _classed(0)
    queue.push(low, 0)
    queue.push(high, 0)
    assert len(queue) == 2
    assert queue.pop(0) is high  # lane 0 drains first
    assert queue.pop(0) is low


def test_lane_aggregates_sum_over_lanes():
    queue = _lane_queue()
    queue.push(_classed(0), 0)
    queue.push(_classed(1), 0)
    assert queue.bytes == sum(lane.bytes for lane in queue.lanes)
    assert queue.capacity_bytes == 20_000
    assert queue.stats.enqueued == 2


def test_pop_unpaused_skips_held_lanes():
    queue = _lane_queue()
    first, second = _classed(0), _classed(1)
    queue.push(first, 0)
    queue.push(second, 0)
    assert queue.pop_unpaused(0b01, 0) is second  # class 0 held
    assert queue.pop_unpaused(0b11, 0) is None    # both held
    assert queue.pop_unpaused(0b00, 0) is first


def test_lane_for_returns_the_class_lane():
    queue = _lane_queue(cls=RankedQueue)
    packet = _classed(1)
    assert queue.lane_for(packet) is queue.lanes[1]


# -- DCQCN --------------------------------------------------------------------


def _dcqcn():
    """A bare sender at 10 Gbps; the runner would derive both inputs."""
    engine = Engine()
    sender = DcqcnSender(engine, StubHost(engine, 1), 7, 2, 1_000_000,
                         TransportConfig(dcqcn_rate_bps=10_000_000_000,
                                         dcqcn_timer_ns=55_000),
                         MetricsCollector())
    return sender, engine


def test_dcqcn_parks_cwnd_and_forces_ecn():
    sender, _ = _dcqcn()
    assert sender.ecn_capable
    assert sender.cwnd == MAX_CWND


def test_dcqcn_state_is_all_integer():
    sender, _ = _dcqcn()
    for value in (sender.rate_bps, sender.target_rate_bps,
                  sender.alpha_fp, sender.pacing_gap_ns()):
        assert isinstance(value, int)


def test_dcqcn_marked_window_cuts_rate_towards_alpha():
    sender, _ = _dcqcn()
    sender.alpha_fp = ALPHA_UNIT  # worst case: everything marked
    before = sender.rate_bps
    sender.snd_una = 100_000
    sender._window_end = 0
    sender._window_acked = 10_000
    sender._window_marked = 10_000
    sender._end_observation_window()
    assert sender.target_rate_bps == before  # pre-cut rate is the target
    assert sender.rate_bps < before
    assert sender.rate_bps >= sender.MIN_RATE_BPS
    assert sender._stage == 0


def test_dcqcn_unmarked_window_decays_alpha_keeps_rate():
    sender, _ = _dcqcn()
    before_rate, before_alpha = sender.rate_bps, sender.alpha_fp
    sender.snd_una = 100_000
    sender._window_end = 0
    sender._window_acked = 10_000
    sender._window_marked = 0
    sender._end_observation_window()
    assert sender.rate_bps == before_rate
    assert sender.alpha_fp < before_alpha


def test_dcqcn_timer_recovers_then_increases():
    sender, engine = _dcqcn()
    sender.rate_bps = 1_000_000_000
    sender.target_rate_bps = 2_000_000_000

    def after_periods(n):
        # The clock is read, not scheduled: cc_state() applies what is due.
        engine.run(until=engine.now + n * 55_000)
        return sender.cc_state()[1]

    assert after_periods(1) == 1_500_000_000  # fast recovery: halve gap
    after_periods(sender.FAST_RECOVERY_STAGES - 1)
    assert sender.target_rate_bps == 2_000_000_000
    target = sender.target_rate_bps
    after_periods(1)                          # past fast stages
    assert sender.target_rate_bps == target + sender._rate_ai_bps


def test_dcqcn_rto_halves_rate():
    sender, _ = _dcqcn()
    sender.on_rto_cc()
    assert sender.rate_bps == 5_000_000_000
    assert sender.cc_state()[0] == "dcqcn"


def test_dcqcn_pacing_gap_tracks_rate():
    sender, _ = _dcqcn()
    fast = sender.pacing_gap_ns()
    sender.on_rto_cc()  # halves the rate; the cached gap must follow
    assert sender.pacing_gap_ns() == 2 * fast
