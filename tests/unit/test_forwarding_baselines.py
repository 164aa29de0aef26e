"""ECMP, DRILL, and DIBS forwarding policies."""

from collections import Counter

from repro.forwarding.base import MAX_DEFLECTIONS
from repro.forwarding.dibs import DibsPolicy
from repro.forwarding import drill
from repro.forwarding.drill import DrillPolicy
from repro.forwarding.ecmp import EcmpPolicy
from repro.sim.engine import Engine
from tests.helpers import fill_queue, make_switch, mk_data, seeded_rng


def _multipath_switch(engine, ranked=False, **kwargs):
    """Switch where host 0 is reachable via all fabric ports (spine view)."""
    switch, sinks, metrics = make_switch(engine, n_host_ports=0,
                                         n_fabric_ports=4, ranked=ranked,
                                         **kwargs)
    switch.fib[0] = tuple(switch.switch_ports)
    return switch, sinks, metrics


# -- ECMP -----------------------------------------------------------------------


def test_ecmp_same_flow_same_port():
    engine = Engine()
    switch, _, _ = _multipath_switch(engine)
    switch.policy = EcmpPolicy(switch, seeded_rng())
    choices = set()
    for seq in range(20):
        packet = mk_data(flow_id=5, seq=seq * 100, dst=0)
        switch.receive(packet, in_port=0)
        engine.run()
        # find which sink got it: all sinks are distinct objects
    counts = [len(sink.received) for sink in
              (switch.ports[p].link.dst for p in switch.switch_ports)]
    assert sorted(counts) == [0, 0, 0, 20]
    assert choices == set()


def test_ecmp_spreads_distinct_flows():
    engine = Engine()
    switch, _, _ = _multipath_switch(engine)
    switch.policy = EcmpPolicy(switch, seeded_rng())
    for flow in range(200):
        switch.receive(mk_data(flow_id=flow, dst=0), in_port=0)
    engine.run()
    used = sum(1 for p in switch.switch_ports
               if switch.ports[p].link.dst.received)
    assert used == 4  # all paths exercised across many flows


def test_ecmp_drops_on_full_queue():
    engine = Engine()
    switch, _, metrics = make_switch(engine, n_host_ports=1,
                                     n_fabric_ports=0)
    switch.policy = EcmpPolicy(switch, seeded_rng())
    fill_queue(switch, 0)
    switch.receive(mk_data(dst=0), in_port=0)
    assert metrics.counters.drops["overflow"] == 1


# -- DRILL ----------------------------------------------------------------------


def test_drill_prefers_least_loaded(monkeypatch):
    monkeypatch.setattr(drill, "SAMPLES_D", 4)
    engine = Engine()
    switch, _, _ = _multipath_switch(engine)
    switch.policy = DrillPolicy(switch, seeded_rng())
    # Pre-load all but port 3 of the fabric.
    for port in switch.switch_ports[:-1]:
        fill_queue(switch, port, payload=1000)
    packet = mk_data(dst=0)
    switch.receive(packet, in_port=0)
    # With d=4 every candidate is sampled, so the empty one must win.
    empty = switch.switch_ports[-1]
    assert packet in switch.ports[empty].queue.packets() \
        or switch.ports[empty].busy


def test_drill_memory_retains_best_port():
    engine = Engine()
    switch, _, _ = _multipath_switch(engine)
    policy = DrillPolicy(switch, seeded_rng())
    switch.policy = policy
    switch.receive(mk_data(flow_id=1, dst=0), in_port=0)
    candidates = switch.candidates(0)
    assert candidates in policy._memory
    assert len(policy._memory[candidates]) == 1


def test_drill_single_candidate_short_circuits():
    engine = Engine()
    switch, sinks, _ = make_switch(engine, n_host_ports=1, n_fabric_ports=0)
    switch.policy = DrillPolicy(switch, seeded_rng())
    packet = mk_data(dst=0)
    switch.receive(packet, in_port=0)
    engine.run()
    assert sinks[0].received == [packet]


def test_drill_drops_on_full_queue():
    engine = Engine()
    switch, _, metrics = make_switch(engine, n_host_ports=1,
                                     n_fabric_ports=0)
    switch.policy = DrillPolicy(switch, seeded_rng())
    fill_queue(switch, 0)
    switch.receive(mk_data(dst=0), in_port=0)
    assert metrics.counters.drops["overflow"] == 1


def test_drill_per_packet_decisions_differ():
    engine = Engine()
    switch, _, _ = _multipath_switch(engine)
    switch.policy = DrillPolicy(switch, seeded_rng())
    for seq in range(100):
        switch.receive(mk_data(flow_id=1, seq=seq * 100, dst=0), in_port=0)
    engine.run()
    used = sum(1 for p in switch.switch_ports
               if switch.ports[p].link.dst.received)
    assert used >= 2  # same flow spread over multiple ports (per-packet)


# -- DIBS -----------------------------------------------------------------------


def test_dibs_forwards_normally_with_space():
    engine = Engine()
    switch, sinks, metrics = make_switch(engine, n_host_ports=1)
    switch.policy = DibsPolicy(switch, seeded_rng())
    packet = mk_data(dst=0)
    switch.receive(packet, in_port=1)
    engine.run()
    assert sinks[0].received == [packet]
    assert metrics.counters.deflections == 0


def test_dibs_deflects_arriving_packet_on_overflow():
    engine = Engine()
    switch, _, metrics = make_switch(engine, n_host_ports=1,
                                     n_fabric_ports=4)
    switch.policy = DibsPolicy(switch, seeded_rng())
    fill_queue(switch, 0)
    packet = mk_data(dst=0)
    switch.receive(packet, in_port=1)
    assert metrics.counters.deflections == 1
    assert packet.deflections == 1
    assert metrics.counters.total_drops == 0
    # The packet landed on some fabric port, not the host port.
    on_fabric = any(packet in switch.ports[p].queue.packets()
                    or switch.ports[p].busy for p in switch.switch_ports)
    assert on_fabric


def test_dibs_never_deflects_to_other_host_ports():
    engine = Engine()
    switch, _, _ = make_switch(engine, n_host_ports=3, n_fabric_ports=2)
    policy = DibsPolicy(switch, seeded_rng())
    switch.policy = policy
    targets = policy.deflection_targets(exclude=0)
    assert set(targets) == set(switch.switch_ports)


def test_dibs_drops_when_no_space_anywhere():
    engine = Engine()
    switch, _, metrics = make_switch(engine, n_host_ports=1,
                                     n_fabric_ports=2)
    switch.policy = DibsPolicy(switch, seeded_rng())
    for port in range(3):
        fill_queue(switch, port)
    switch.receive(mk_data(dst=0), in_port=1)
    assert metrics.counters.drops["deflect_failed"] == 1


def test_dibs_deflection_budget_enforced():
    engine = Engine()
    switch, _, metrics = make_switch(engine, n_host_ports=1,
                                     n_fabric_ports=4)
    switch.policy = DibsPolicy(switch, seeded_rng())
    fill_queue(switch, 0)
    packet = mk_data(dst=0)
    packet.deflections = MAX_DEFLECTIONS
    switch.receive(packet, in_port=1)
    assert metrics.counters.drops["deflection_limit"] == 1
