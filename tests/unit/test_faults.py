"""Fault specs, the --fault grammar, and link/network runtime rewiring."""

import pickle

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import config_digest
from repro.faults import (
    FaultInjector,
    FaultSpec,
    cable_key,
    parse_fault,
    parse_faults,
    parse_rate_bps,
    parse_time_ns,
)
from repro.forwarding.ecmp import EcmpPolicy
from repro.host.host import HostStackConfig
from repro.metrics.collector import MetricsCollector
from repro.net.builder import NetworkParams, build_network
from repro.net.link import Link
from repro.net.topology import LeafSpine
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import MILLISECOND, mbps
from repro.transport.reno import RenoSender
from tests.helpers import SinkDevice, mk_data


# -- FaultSpec validation ------------------------------------------------------


def test_spec_normalizes_link_order():
    spec = FaultSpec(kind="down", link=("spine1", "leaf0"), at_ns=5)
    assert spec.link == ("leaf0", "spine1")
    assert spec == FaultSpec(kind="down", link=("leaf0", "spine1"), at_ns=5)


def test_spec_rejects_bad_kind_and_times():
    with pytest.raises(ValueError):
        FaultSpec(kind="explode", link=("a", "b"), at_ns=0)
    with pytest.raises(ValueError):
        FaultSpec(kind="down", link=("a", "b"), at_ns=-1)
    with pytest.raises(ValueError):
        FaultSpec(kind="down", link=("a", "b"), at_ns=1.5)  # noqa: VR003


def test_spec_kind_specific_fields():
    with pytest.raises(ValueError):
        FaultSpec(kind="rate", link=("a", "b"), at_ns=0)  # missing rate
    with pytest.raises(ValueError):
        FaultSpec(kind="loss", link=("a", "b"), at_ns=0, loss_rate=1.0)
    with pytest.raises(ValueError):
        FaultSpec(kind="down", link=("a", "b"), at_ns=0, rate_bps=10)
    FaultSpec(kind="rate", link=("a", "b"), at_ns=0, rate_bps=10)
    FaultSpec(kind="loss", link=("a", "b"), at_ns=0, loss_rate=0.0)


def test_specs_are_hashable_and_picklable():
    import pickle

    spec = FaultSpec(kind="rate", link=("a", "b"), at_ns=7, rate_bps=100)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert len({spec, spec}) == 1


# -- parsing -------------------------------------------------------------------


def test_parse_time_and_rate():
    assert parse_time_ns("50ms") == 50 * MILLISECOND
    assert parse_time_ns("3us") == 3_000
    assert parse_time_ns("1500") == 1_500
    assert parse_time_ns("1s") == 1_000_000_000
    assert parse_rate_bps("40mbps") == mbps(40)
    assert parse_rate_bps("2gbps") == 2_000_000_000
    assert parse_rate_bps("9600") == 9_600
    with pytest.raises(ValueError):
        parse_time_ns("fast")
    with pytest.raises(ValueError):
        parse_rate_bps("many")


def test_parse_fault_down_up_directive():
    specs = parse_fault("link:leaf0-spine1:down@50ms,up@120ms")
    assert specs == (
        FaultSpec(kind="down", link=("leaf0", "spine1"),
                  at_ns=50 * MILLISECOND),
        FaultSpec(kind="up", link=("leaf0", "spine1"),
                  at_ns=120 * MILLISECOND),
    )


def test_parse_fault_rate_and_loss():
    rate, loss, heal = parse_fault(
        "link:leaf0-h3:rate=40mbps@10ms,loss=0.02@20ms,loss=0@60ms")
    assert rate.kind == "rate" and rate.rate_bps == mbps(40)
    assert rate.link == ("h3", "leaf0")
    assert loss.loss_rate == 0.02
    assert heal.loss_rate == 0.0


def test_parse_fault_rejects_malformed():
    for bad in ("leaf0-spine1:down@1ms",          # missing link: prefix
                "link:leaf0:down@1ms",            # no cable
                "link:leaf0-spine1:down",         # no @time
                "link:leaf0-spine1:melt@1ms",     # unknown event
                "link:leaf0-spine1:down=3@1ms"):  # value on down
        with pytest.raises(ValueError):
            parse_fault(bad)


def test_parse_faults_concatenates_directives():
    specs = parse_faults(["link:a-b:down@1ms", "link:c-d:up@2ms"])
    assert [s.kind for s in specs] == ["down", "up"]
    assert parse_faults([]) == ()
    assert parse_faults(None) == ()


# -- link-level rewiring -------------------------------------------------------


def test_down_link_drops_at_the_wire_with_reason():
    engine = Engine()
    sink = SinkDevice()
    dropped = []
    link = Link(engine, 10 ** 9, 0, sink, 0,
                on_drop=lambda p, reason: dropped.append(reason))
    link.set_up(False)
    link.deliver(mk_data())
    engine.run()
    assert sink.received == []
    assert dropped == ["link_down"]


def test_packet_already_propagating_still_arrives():
    """Bits committed to the wire before the cut are delivered."""
    engine = Engine()
    sink = SinkDevice()
    link = Link(engine, 10 ** 9, 1_000, sink, 0)
    link.deliver(mk_data())       # schedules arrival at t=1000
    link.set_up(False)            # cut after the packet entered the wire
    engine.run()
    assert len(sink.received) == 1


def test_set_rate_validation_and_effect():
    engine = Engine()
    link = Link(engine, 10 ** 9, 0, SinkDevice(), 0)
    link.set_rate(5)
    assert link.rate_bps == 5
    with pytest.raises(ValueError):
        link.set_rate(0)


def test_set_loss_needs_rng_and_heals():
    import random

    engine = Engine()
    link = Link(engine, 10 ** 9, 0, SinkDevice(), 0)
    with pytest.raises(ValueError):
        link.set_loss(0.5)
    link.set_loss(0.5, random.Random(1))
    assert link.loss_rate == 0.5
    link.set_loss(0.0)
    assert link.loss_rate == 0.0


# -- network-level rewiring ----------------------------------------------------


def _network(n_spines=2, n_leaves=2, hosts_per_leaf=1):
    engine = Engine()
    metrics = MetricsCollector()
    network = build_network(
        engine, LeafSpine(n_spines, n_leaves, hosts_per_leaf),
        NetworkParams(), metrics,
        HostStackConfig(transport_cls=RenoSender),
        lambda s, r: EcmpPolicy(s, r), RngRegistry(1))
    return engine, network, metrics


def test_cable_registry_covers_all_links():
    _, network, _ = _network()
    # 2 hosts x 2 directions + 4 fabric cables x 2 directions.
    assert len(network.links) == 2 * 2 + 4 * 2
    assert network.links[("leaf0", "spine0")].dst is \
        network.switches["spine0"]
    with pytest.raises(ValueError):
        network.cable_links("leaf0", "nonexistent")


def test_cable_down_removes_fib_candidates():
    _, network, _ = _network()
    leaf0 = network.switches["leaf0"]
    host_behind_leaf1 = 1
    assert len(leaf0.fib[host_behind_leaf1]) == 2   # both spines
    network.set_cable_state("leaf0", "spine0", up=False)
    assert not network.links[("leaf0", "spine0")].up
    assert not network.links[("spine0", "leaf0")].up
    candidates = leaf0.fib[host_behind_leaf1]
    assert len(candidates) == 1
    # The surviving candidate reaches spine1.
    assert leaf0.ports[candidates[0]].peer is network.switches["spine1"]


def test_cable_up_restores_routes():
    _, network, _ = _network()
    leaf0 = network.switches["leaf0"]
    before = leaf0.fib[1]
    network.set_cable_state("leaf0", "spine0", up=False)
    network.set_cable_state("leaf0", "spine0", up=True)
    assert leaf0.fib[1] == before
    assert network.dead_cables == set()


def test_partition_yields_empty_candidates_and_no_route_drop():
    engine, network, metrics = _network(n_spines=1, n_leaves=2)
    network.set_cable_state("leaf0", "spine0", up=False)
    leaf0 = network.switches["leaf0"]
    assert leaf0.fib[1] == ()   # host 1 is unreachable from leaf0
    packet = mk_data(dst=1)
    leaf0.receive(packet, in_port=0)
    engine.run()
    assert metrics.counters.drops["no_route"] == 1


def test_host_cable_down_does_not_touch_switch_routes():
    _, network, _ = _network()
    leaf0 = network.switches["leaf0"]
    before = dict(leaf0.fib)
    network.set_cable_state("h0", "leaf0", up=False)
    assert leaf0.fib == before
    assert not network.links[("h0", "leaf0")].up


# -- injector ------------------------------------------------------------------


def test_injector_validates_cables_eagerly():
    engine, network, _ = _network()
    with pytest.raises(ValueError):
        FaultInjector(engine, network, RngRegistry(1),
                      [FaultSpec(kind="down", link=("leaf0", "spine9"),
                                 at_ns=0)])


def test_injector_applies_in_time_order():
    engine, network, _ = _network()
    down = FaultSpec(kind="down", link=("leaf0", "spine0"),
                     at_ns=2 * MILLISECOND)
    up = FaultSpec(kind="up", link=("leaf0", "spine0"),
                   at_ns=5 * MILLISECOND)
    injector = FaultInjector(engine, network, RngRegistry(1), [up, down])
    injector.schedule()
    engine.run(until=3 * MILLISECOND)
    assert not network.links[("leaf0", "spine0")].up
    engine.run(until=6 * MILLISECOND)
    assert network.links[("leaf0", "spine0")].up
    # The injector's log is the run's fault timeline.
    assert injector.applied == [(2 * MILLISECOND, down),
                                (5 * MILLISECOND, up)]


def test_injector_rate_and_loss_faults():
    engine, network, _ = _network()
    injector = FaultInjector(
        engine, network, RngRegistry(1),
        [FaultSpec(kind="rate", link=("leaf0", "spine0"), at_ns=1_000,
                   rate_bps=mbps(1)),
         FaultSpec(kind="loss", link=("leaf0", "spine0"), at_ns=2_000,
                   loss_rate=0.25)])
    injector.schedule()
    engine.run(until=10_000)
    forward, backward = network.cable_links("leaf0", "spine0")
    assert forward.rate_bps == backward.rate_bps == mbps(1)
    assert forward.loss_rate == backward.loss_rate == 0.25
    assert forward.loss_rng is not None


def test_config_with_faults_round_trip():
    # A fault scenario rides the config through a pickle (the sweep
    # executor's path) unchanged and keys the point's config digest.
    specs = parse_fault("link:leaf0-spine1:down@5ms,up@12ms")
    config = ExperimentConfig.bench_profile(system="ecmp", faults=specs)
    assert config.faults == specs
    clone = pickle.loads(pickle.dumps(config))
    assert clone.faults == specs
    assert config_digest(clone) == config_digest(config) \
        != config_digest(ExperimentConfig.bench_profile(system="ecmp"))


def test_cable_key():
    assert cable_key("b", "a") == ("a", "b")
    assert cable_key("a", "b") == ("a", "b")
