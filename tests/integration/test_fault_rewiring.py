"""Runtime-rewiring invariants under fault injection.

Property tests over every single-cable failure in both topology
families: any host pair that stays physically connected keeps a valid
multipath route, FIB entries only empty out when the fabric is truly
partitioned, and every forwarding policy completes a failure scenario
without raising — with zero sanitizer violations and a determinism
digest that is byte-identical across serial and parallel execution.
"""

import pytest

from repro.analysis import sanitize as _sanitize
from repro.experiments.config import ALL_SYSTEMS, ExperimentConfig
from repro.experiments.digest import run_digest
from repro.experiments.parallel import run_many
from repro.experiments.runner import run_experiment
from repro.faults.spec import parse_fault
from repro.forwarding.ecmp import EcmpPolicy
from repro.host.host import HostStackConfig
from repro.metrics.collector import MetricsCollector
from repro.net.builder import NetworkParams, build_network, cable_key
from repro.net.topology import FatTree, LeafSpine
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import MILLISECOND, SECOND
from repro.trace.config import TraceConfig
from repro.transport.reno import RenoSender
from tests.helpers import mk_data


def _build(topology):
    engine = Engine()
    metrics = MetricsCollector()
    network = build_network(
        engine, topology, NetworkParams(), metrics,
        HostStackConfig(transport_cls=RenoSender),
        lambda s, r: EcmpPolicy(s, r), RngRegistry(1))
    return engine, network, metrics


def _assert_routes_valid_after_failure(topology, dead_a, dead_b):
    """After cutting one cable, FIBs match reachability over survivors."""
    _, network, _ = _build(topology)
    network.set_cable_state(dead_a, dead_b, up=False)
    dead = {cable_key(dead_a, dead_b)}
    tors = {host: topology.host_tor(host)
            for host in range(topology.n_hosts)}
    for host, tor in tors.items():
        reachable = topology.bfs_distances(tor, exclude=dead)
        for switch in network.switches.values():
            if switch.name == tor:
                continue
            candidates = switch.fib[host]
            if switch.name in reachable:
                # Still connected: a non-empty route set survives, and
                # every candidate steps one hop closer to the ToR.
                assert candidates, (
                    f"{switch.name} lost its route to host {host} "
                    f"although {dead_a}-{dead_b} leaves them connected")
                for port in candidates:
                    peer = switch.ports[port].peer
                    assert reachable[peer.name] \
                        == reachable[switch.name] - 1
            else:
                assert candidates == (), (
                    f"{switch.name} kept a route to host {host} across "
                    f"a partition")


@pytest.mark.parametrize("edge_index", range(6))
def test_leaf_spine_single_failure_preserves_routes(edge_index):
    topology = LeafSpine(n_spines=2, n_leaves=3, hosts_per_leaf=2)
    edge = topology.switch_adjacency[edge_index]
    _assert_routes_valid_after_failure(topology, *edge)


def test_fat_tree_every_single_failure_preserves_routes():
    topology = FatTree(4)
    for edge in topology.switch_adjacency:
        _assert_routes_valid_after_failure(topology, *edge)


def test_down_up_cycle_restores_original_tables():
    topology = FatTree(4)
    _, network, _ = _build(topology)
    original = {name: dict(switch.fib)
                for name, switch in network.switches.items()}
    for edge in topology.switch_adjacency[:4]:
        network.set_cable_state(*edge, up=False)
        network.set_cable_state(*edge, up=True)
    for name, switch in network.switches.items():
        assert switch.fib == original[name]


# -- every policy survives a mid-run spine failure -----------------------------

#: Scheduled mid-incast spine failure with recovery before the run ends.
FAILURE_SCENARIO = "link:leaf0-spine1:down@8ms,up@20ms"


def _failure_config(system: str) -> ExperimentConfig:
    return ExperimentConfig.bench_profile(
        system=system, transport="dctcp", bg_load=0.1, incast_qps=100,
        incast_scale=4, incast_flow_bytes=5_000,
        topology=LeafSpine(n_spines=2, n_leaves=2, hosts_per_leaf=4),
        sim_time_ns=30 * MILLISECOND,
        faults=parse_fault(FAILURE_SCENARIO))


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_policy_completes_spine_failure_scenario_sanitized(system):
    with _sanitize.scoped(True):
        result = run_experiment(_failure_config(system))
    # Traffic moved despite the failure window, and nothing raised.
    assert result.metrics.flow_completion_pct() > 30
    assert result.metrics.counters.forwarded > 0


def test_failure_digest_identical_serial_vs_parallel():
    configs = [_failure_config("vertigo"), _failure_config("ecmp")]
    serial = [run_digest(r) for r in run_many(configs, jobs=1)]
    parallel = [run_digest(r) for r in run_many(configs, jobs=2)]
    assert serial == parallel


def test_failure_changes_results_but_stays_deterministic():
    healthy = _failure_config("vertigo")
    healthy.faults = ()
    failed_a = run_digest(run_experiment(_failure_config("vertigo")))
    failed_b = run_digest(run_experiment(_failure_config("vertigo")))
    assert failed_a == failed_b
    assert failed_a != run_digest(run_experiment(healthy))


# -- conservation across a down/up cycle with a packet in flight ---------------


def test_conservation_across_down_up_cycle_with_packet_in_flight():
    """The cut catches a packet mid-serialization: it must be accounted
    as a ``link_down`` wire drop, held packets must survive the outage,
    and the sanitizer must observe zero violations throughout."""
    with _sanitize.scoped(True):
        topology = LeafSpine(n_spines=1, n_leaves=2, hosts_per_leaf=1)
        engine, network, metrics = _build(topology)
        metrics.flow_started(1, 0, 1, 60_000, 0)
        network.hosts[1].open_receiver(1, peer=0, size=60_000)
        sender = network.hosts[0].open_sender(1, dst=1, size=60_000)
        sender.start()
        # Let the first packets reach the leaf0->spine0 wire...
        engine.run(until=6_000)
        port = network.tx_ports[("leaf0", "spine0")]
        assert port.busy, "expected a packet mid-serialization"
        network.set_cable_state("leaf0", "spine0", up=False)
        engine.run(until=2 * MILLISECOND)
        # The in-flight packet hit the dead wire and was accounted.
        assert metrics.counters.drops["link_down"] >= 1
        assert not port.busy
        network.set_cable_state("leaf0", "spine0", up=True)
        # Generous horizon: the sender's RTO backed off during the
        # outage, so recovery starts ~1 s in.
        engine.run(until=5 * SECOND)
        # The transport recovered every byte end to end.
        assert metrics.flows[1].bytes_delivered == 60_000


def test_held_queue_drains_after_link_up():
    """Packets queued behind a dead wire are parked, not dropped, and
    drain to their destination once the cable heals."""
    topology = LeafSpine(n_spines=1, n_leaves=2, hosts_per_leaf=1)
    engine, network, metrics = _build(topology)
    port = network.tx_ports[("leaf0", "spine0")]
    network.set_cable_state("leaf0", "spine0", up=False)
    for seq in range(3):
        port.enqueue(mk_data(seq=seq, dst=1))
    engine.run(until=MILLISECOND)
    assert len(port.queue) == 3   # held across the whole outage
    assert not port.busy
    network.set_cable_state("leaf0", "spine0", up=True)
    engine.run(until=2 * MILLISECOND)
    assert len(port.queue) == 0
    assert metrics.counters.delivered == 3
    assert metrics.counters.drops["link_down"] == 0


def test_packet_trace_records_wire_drops_and_port_dequeues():
    """The three ``_TRACE`` hooks in net/link.py (wire drops for a dead
    and for a lossy link, the transmit-loop dequeue) reach the trace."""
    config = ExperimentConfig.bench_profile(
        system="ecmp", transport="dctcp", bg_load=0.4, incast_qps=60,
        incast_scale=6, sim_time_ns=10 * MILLISECOND, seed=3,
        faults=parse_fault(
            "link:leaf0-spine1:loss=0.05@0ms,down@4ms,up@7ms"))
    config.trace = TraceConfig(level="packet")
    result = run_experiment(config)
    events = result.trace.events
    counted = result.metrics.counters.drops
    for reason in ("link_down", "link_loss"):
        # (kind, t, node, reason, ...): node is the directed link label.
        labels = [e[2] for e in events
                  if e[0] == "pkt.drop" and e[3] == reason]
        assert len(labels) == counted[reason] > 0
        assert set(labels) <= {"leaf0->spine1", "spine1->leaf0"}
    # Every port that transmitted a packet dequeued it first.
    dequeues = sum(1 for e in events if e[0] == "pkt.dequeue")
    sent = sum(port.packets_sent for switch in
               result.network.switches.values() for port in switch.ports) \
        + sum(host.nic.packets_sent for host in result.network.hosts)
    assert dequeues >= sent > 0
