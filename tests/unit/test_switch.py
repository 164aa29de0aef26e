"""Switch dataplane basics (policy-independent)."""

import pytest

from repro.forwarding.ecmp import EcmpPolicy
from repro.net.switch import MAX_HOPS
from repro.sim.engine import Engine
from tests.helpers import make_switch, mk_data, seeded_rng


def test_receive_increments_hops_and_forwards():
    engine = Engine()
    switch, sinks, metrics = make_switch(engine, n_host_ports=1)
    switch.policy = EcmpPolicy(switch, seeded_rng())
    packet = mk_data(dst=0)
    switch.receive(packet, in_port=1)
    engine.run()
    assert packet.hops == 1
    assert sinks[0].received == [packet]
    assert metrics.counters.forwarded == 1


def test_hop_limit_drops():
    engine = Engine()
    switch, _, metrics = make_switch(engine)
    switch.policy = EcmpPolicy(switch, seeded_rng())
    packet = mk_data(dst=0)
    packet.hops = MAX_HOPS  # next hop exceeds the budget
    switch.receive(packet, in_port=1)
    engine.run()
    assert metrics.counters.drops["hop_limit"] == 1
    assert metrics.counters.forwarded == 0


def test_unknown_destination_raises():
    engine = Engine()
    switch, _, _ = make_switch(engine, n_host_ports=1)
    switch.policy = EcmpPolicy(switch, seeded_rng())
    with pytest.raises(KeyError):
        switch.candidates(999)


def test_switch_ports_lists_fabric_ports():
    engine = Engine()
    switch, _, _ = make_switch(engine, n_host_ports=2, n_fabric_ports=3)
    assert switch.switch_ports == (2, 3, 4)


def test_drop_counts_by_reason():
    engine = Engine()
    switch, _, metrics = make_switch(engine)
    switch.drop(mk_data(), "test_reason")
    switch.drop(mk_data(), "test_reason")
    assert metrics.counters.drops["test_reason"] == 2


def test_queue_bytes_reports_occupancy():
    engine = Engine()
    switch, _, _ = make_switch(engine)
    assert switch.queue_bytes(0) == 0
    packet = mk_data(payload=1000)
    switch.ports[0].queue.push(packet)
    assert switch.queue_bytes(0) == packet.wire_bytes
