#!/usr/bin/env python3
"""Lower-level API tour: build a fat-tree network by hand and drive flows.

Shows what the experiment runner does under the hood: construct a
topology, wire a network with an explicit forwarding policy, open flow
endpoints on hosts, and run the event loop — useful when embedding the
simulator in your own harness.

Usage::

    python examples/custom_topology.py
"""

from repro.forwarding.base import VertigoSwitchParams
from repro.forwarding.vertigo import VertigoPolicy
from repro.host.host import HostStackConfig
from repro.metrics.collector import MetricsCollector
from repro.net.builder import NetworkParams, build_network
from repro.net.topology import FatTree
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import MILLISECOND, fmt_time, kb, mbps, usecs
from repro.transport.dctcp import DctcpSender


def main() -> None:
    engine = Engine()
    metrics = MetricsCollector()
    topology = FatTree(k=4)  # 16 hosts, 20 switches
    params = NetworkParams(host_rate_bps=mbps(200),
                           fabric_rate_bps=mbps(200),
                           host_link_delay_ns=usecs(1),
                           fabric_link_delay_ns=usecs(1),
                           buffer_bytes=kb(30),
                           ecn_threshold_bytes=9_000)
    stack = HostStackConfig(transport_cls=DctcpSender,
                            vertigo_marking=True, vertigo_ordering=True,
                            ordering_timeout_ns=usecs(1500))
    network = build_network(
        engine, topology, params, metrics, stack,
        lambda switch, rng: VertigoPolicy(switch, rng,
                                          VertigoSwitchParams()),
        RngRegistry(seed=7), use_ranked_queues=True)

    print(f"built {topology!r}: {topology.n_hosts} hosts, "
          f"{len(network.switches)} switches")
    edge = network.switches["edge0_0"]
    print(f"edge0_0 routes to host 15 via ports {edge.fib[15]} "
          f"(both aggregation switches — ECMP up-down)")

    # A cross-pod incast by hand: hosts 4..9 all send 100 KB to host 0.
    done = []
    for index, server in enumerate(range(4, 10)):
        flow_id = 100 + index
        size = 100_000
        metrics.flow_started(flow_id, server, 0, size, engine.now,
                             is_incast=True)
        network.hosts[0].open_receiver(flow_id, server, size)
        sender = network.hosts[server].open_sender(
            flow_id, 0, size,
            on_complete=lambda sender: done.append(sender.flow_id))
        sender.start()

    engine.run(until=100 * MILLISECOND)

    print(f"\ncompleted {len(done)}/6 senders; per-flow FCTs:")
    for flow in metrics.flows.values():
        fct = fmt_time(flow.fct_ns) if flow.completed else "incomplete"
        print(f"  flow {flow.flow_id}: host{flow.src} -> host{flow.dst}  "
              f"{flow.size} B  fct={fct}")
    counters = metrics.counters
    print(f"\nnetwork: {counters.delivered} packets delivered, "
          f"{counters.deflections} deflections, "
          f"{counters.total_drops} drops, "
          f"mean path {counters.mean_hops():.2f} switch hops")


if __name__ == "__main__":
    main()
