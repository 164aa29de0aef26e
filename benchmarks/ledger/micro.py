"""Isolated ns/op of twelve datapath operations.

Each op drives the real interface with synthetic packets, built only
from public constructors; at least ``ITERATIONS`` iterations, best of
``ROUNDS`` rounds (the minimum is the least-disturbed round — these are
single-threaded CPU loops, so noise only ever adds).  The numbers are a
per-layer budget to read next to the ledger, not end-to-end metrics.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

ITERATIONS = 50_000
ROUNDS = 3

#: Ops that fill a queue are timed in chunks this long, the queue being
#: emptied (untimed) in between so depth stays realistic.
CHUNK = 16

#: Standing depth for the rank-ordered queues.
DEPTH = 16


def _best_ns_per_op(run_round: Callable[[], float]) -> float:
    """``run_round`` returns the host ns its ITERATIONS ops took."""
    return min(run_round() for _ in range(ROUNDS)) / ITERATIONS


def _noop() -> None:
    return None


def _event_ns(fast: bool) -> float:
    from repro.sim.engine import Engine

    def run_round() -> float:
        engine = Engine()
        schedule = engine.schedule_fast if fast else engine.schedule
        t0 = time.perf_counter_ns()
        for i in range(ITERATIONS):
            schedule(i, _noop)
        engine.run()
        return time.perf_counter_ns() - t0
    return _best_ns_per_op(run_round)


def _packet(i: int, flow_id: int = 1, pclass: int = 0,
            payload: int = 1460):
    from repro.net.packet import data_packet

    packet = data_packet(0, 9, flow_id, seq=1460 * i, payload=payload)
    packet.pclass = pclass
    return packet


def _queue_ns(make_queue: Callable[[], object], depth: int,
              two_classes: bool = False) -> float:
    """One push + one pop with ``depth`` packets standing."""
    # Unmarked packets rank by wire size: vary it so ranks differ.
    packets = [_packet(i, pclass=i & 1 if two_classes else 0,
                       payload=100 + i * 37 % 1361)
               for i in range(ITERATIONS + depth)]

    def run_round() -> float:
        queue = make_queue()
        for packet in packets[:depth]:
            queue.push(packet, 0)
        rest = packets[depth:]
        t0 = time.perf_counter_ns()
        for packet in rest:
            queue.push(packet, 0)
            queue.pop(0)
        return time.perf_counter_ns() - t0
    return _best_ns_per_op(run_round)


def _rank_queue_ns() -> float:
    from repro.core.scheduler import RankQueue

    def run_round() -> float:
        queue = RankQueue()
        for i in range(DEPTH):
            queue.push(i * 37 % 101, i)
        t0 = time.perf_counter_ns()
        for i in range(ITERATIONS):
            queue.push(i * 37 % 101, i)
            queue.pop_min()
        return time.perf_counter_ns() - t0
    return _best_ns_per_op(run_round)


def _cuckoo_ns() -> float:
    from repro.core.cuckoo import CuckooFilter

    present = 4096
    cuckoo = CuckooFilter(capacity=1 << 15)
    for key in range(present):
        cuckoo.insert(key)
    contains = cuckoo.contains

    def run_round() -> float:
        t0 = time.perf_counter_ns()
        for i in range(ITERATIONS):
            contains(i % present)
        return time.perf_counter_ns() - t0
    return _best_ns_per_op(run_round)


def _mark_ns() -> float:
    """First-transmission marks, one CHUNK-packet flow after another;
    registering and retiring the flows (which empties the cuckoo filter
    again) is untimed."""
    from repro.core.marking import MarkingComponent

    def run_round() -> float:
        marking = MarkingComponent(seed=1)
        total = 0
        for flow_id in range(1, ITERATIONS // CHUNK + 1):
            marking.register_flow(flow_id, 1460 * CHUNK)
            packets = [_packet(i, flow_id) for i in range(CHUNK)]
            t0 = time.perf_counter_ns()
            for packet in packets:
                marking.mark(packet)
            total += time.perf_counter_ns() - t0
            marking.flow_done(flow_id)
        return total
    return _best_ns_per_op(run_round)


def _inorder_ns() -> float:
    from repro.core.marking import MarkingComponent
    from repro.core.ordering import OrderingComponent
    from repro.sim.engine import Engine

    marking = MarkingComponent(seed=1)
    packets = []
    for flow_id in range(1, ITERATIONS // CHUNK + 1):
        marking.register_flow(flow_id, 1460 * CHUNK)
        flow = [_packet(i, flow_id) for i in range(CHUNK)]
        for packet in flow:
            marking.mark(packet)
        marking.flow_done(flow_id)
        packets += flow

    def run_round() -> float:
        ordering = OrderingComponent(Engine(), lambda packet: None)
        t0 = time.perf_counter_ns()
        for packet in packets:
            ordering.on_packet(packet)
        return time.perf_counter_ns() - t0
    return _best_ns_per_op(run_round)


def _route_ns(system: str) -> float:
    """``policy.route`` at a leaf towards a remote host, into ports that
    fit.  The egress queues are emptied (untimed) every CHUNK packets;
    the engine never runs, so a port transmits once and then only
    queues."""
    from repro.experiments.config import ExperimentConfig
    from repro.forwarding.ecmp import EcmpPolicy
    from repro.forwarding.vertigo import VertigoPolicy
    from repro.host.host import HostStackConfig
    from repro.metrics.collector import MetricsCollector
    from repro.net.builder import build_network
    from repro.sim.engine import Engine
    from repro.sim.rng import RngRegistry
    from repro.transport import TRANSPORTS

    config = ExperimentConfig.bench_profile(system=system)
    policy = {"ecmp": EcmpPolicy, "vertigo": VertigoPolicy}[system]
    network = build_network(
        Engine(), config.topology, config.network, MetricsCollector(),
        HostStackConfig(transport_cls=TRANSPORTS["dctcp"]),
        policy, RngRegistry(1), use_ranked_queues=system == "vertigo")
    leaf = network.switches[config.topology.host_tor(0)]
    remote = config.topology.n_hosts - 1
    in_port = network.port_of[(leaf.name, 0)]
    route = leaf.policy.route
    packets = [_packet(i, flow_id=1 + i % 64) for i in range(ITERATIONS)]
    for packet in packets:
        packet.dst = remote

    def run_round() -> float:
        total = 0
        for start in range(0, ITERATIONS, CHUNK):
            chunk = packets[start:start + CHUNK]
            t0 = time.perf_counter_ns()
            for packet in chunk:
                route(packet, in_port)
            total += time.perf_counter_ns() - t0
            for port in leaf.ports:
                while port.queue:
                    port.queue.pop(0)
        return total
    return _best_ns_per_op(run_round)


class _Sink:
    """A device that terminates a link and discards what arrives."""

    name = "sink"

    def receive(self, packet, in_port: int) -> None:
        return None


def _port_cycle_ns() -> float:
    from repro.net.link import Link, Port
    from repro.net.queues import DropTailQueue
    from repro.sim.engine import Engine

    packets = [_packet(i) for i in range(ITERATIONS)]

    def run_round() -> float:
        engine = Engine()
        sink = _Sink()
        port = Port(engine, sink, 0, DropTailQueue(1 << 30))
        port.attach(Link(engine, 10_000_000_000, 1000, sink, 0))
        t0 = time.perf_counter_ns()
        for packet in packets:
            port.enqueue(packet)
            engine.run()
        return time.perf_counter_ns() - t0
    return _best_ns_per_op(run_round)


def run_all() -> Dict[str, float]:
    from repro.net.queues import ClassLaneQueue, DropTailQueue, RankedQueue

    big = 1 << 30
    return {
        "sim.engine.micro_event_ns": _event_ns(fast=False),
        "sim.engine.micro_fast_event_ns": _event_ns(fast=True),
        "net.queues.micro_droptail_ns":
            _queue_ns(lambda: DropTailQueue(big), depth=0),
        "net.queues.micro_ranked_ns":
            _queue_ns(lambda: RankedQueue(big), depth=DEPTH),
        "net.queues.micro_lanes2_ns":
            _queue_ns(lambda: ClassLaneQueue(
                [DropTailQueue(big), DropTailQueue(big)]), depth=0,
                two_classes=True),
        "core.scheduler.micro_pushpop_ns": _rank_queue_ns(),
        "core.cuckoo.micro_lookup_ns": _cuckoo_ns(),
        "core.marking.micro_mark_ns": _mark_ns(),
        "core.ordering.micro_inorder_ns": _inorder_ns(),
        "forwarding.micro_ecmp_route_ns": _route_ns("ecmp"),
        "forwarding.micro_vertigo_route_ns": _route_ns("vertigo"),
        "net.link.micro_port_cycle_ns": _port_cycle_ns(),
    }
