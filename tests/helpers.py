"""Shared test utilities: stub devices and standalone-switch harnesses."""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional

from repro.metrics.collector import MetricsCollector
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind, data_packet
from repro.net.queues import DropTailQueue, RankedQueue
from repro.net.switch import Switch
from repro.sim.engine import Engine
from repro.sim.units import usecs


class SinkDevice:
    """Endpoint that records every packet delivered to it."""

    def __init__(self, name: str = "sink") -> None:
        self.name = name
        self.received: List[Packet] = []

    def receive(self, packet: Packet, in_port: int) -> None:
        self.received.append(packet)


def make_switch(engine: Engine, *, n_fabric_ports: int = 4,
                n_host_ports: int = 1, ranked: bool = False,
                capacity_bytes: int = 30_000,
                rate_bps: int = 1_000_000_000,
                metrics: Optional[MetricsCollector] = None):
    """A standalone switch whose every port feeds a :class:`SinkDevice`.

    Host-facing ports come first (port ``i`` reaches host ``i``), then the
    fabric (switch-facing) ports.  The FIB maps host ``i`` to its port.
    Returns ``(switch, sinks_by_port, metrics)``.
    """
    metrics = metrics or MetricsCollector()
    switch = Switch(engine, "sw0", metrics.counters)
    sinks: Dict[int, SinkDevice] = {}
    queue_cls = RankedQueue if ranked else DropTailQueue
    for host in range(n_host_ports):
        port = switch.add_port(queue_cls(capacity_bytes), faces_switch=False)
        sink = SinkDevice(f"host{host}")
        sinks[port] = sink
        switch.ports[port].attach(Link(engine, rate_bps, usecs(1), sink, 0))
        switch.fib[host] = (port,)
    for fabric in range(n_fabric_ports):
        port = switch.add_port(queue_cls(capacity_bytes), faces_switch=True)
        sink = SinkDevice(f"peer{fabric}")
        sinks[port] = sink
        switch.ports[port].attach(Link(engine, rate_bps, usecs(1), sink, 0))
    return switch, sinks, metrics


def bounded_tracer(config=None, *, max_events: Optional[int] = None,
                   max_samples: Optional[int] = None):
    """A :class:`~repro.trace.tracer.Tracer` whose record logs keep only
    the newest ``max_events`` / ``max_samples`` records (by default the
    tracer's own bounds)."""
    from unittest import mock

    from repro.trace import tracer

    with mock.patch.multiple(
            tracer, MAX_EVENTS=max_events or tracer.MAX_EVENTS,
            MAX_SAMPLES=max_samples or tracer.MAX_SAMPLES):
        return tracer.Tracer(config)


def mk_data(flow_id: int = 1, seq: int = 0, payload: int = 1000,
            src: int = 10, dst: int = 0, **kwargs) -> Packet:
    return data_packet(src, dst, flow_id, seq, payload, **kwargs)


def fill_queue(switch: Switch, port: int, *, payload: int = 1460,
               flow_id: int = 99, rank: Optional[int] = None) -> int:
    """Stuff a port queue to capacity with filler packets; returns count."""
    from repro.core.flowinfo import FlowInfo

    count = 0
    seq = 0
    while True:
        packet = mk_data(flow_id=flow_id, seq=seq, payload=payload)
        if rank is not None:
            packet.flowinfo = FlowInfo(rfs=rank)
        if not switch.ports[port].queue.fits(packet):
            return count
        switch.ports[port].queue.push(packet, switch.engine.now)
        seq += payload
        count += 1


def drain_engine(engine: Engine, limit_ns: int = 10_000_000_000) -> None:
    engine.run(until=limit_ns)


def seeded_rng(seed: int = 42) -> random.Random:
    return random.Random(seed)


def example_module(name: str):
    """``examples/<name>.py`` imported as a module (the examples are
    scripts, not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rewrite_checkpoint_header(path, **changes) -> None:
    """Edit a checkpoint file's header fields in place; a ``None`` value
    deletes the field.  The payload bytes are left untouched."""
    with open(path, "rb") as fh:
        line, _, payload = fh.read().partition(b"\n")
    header = json.loads(line)
    for key, value in changes.items():
        if value is None:
            del header[key]
        else:
            header[key] = value
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + payload)


def trace_fingerprint(result, n_lines: int = 24) -> Dict[str, object]:
    """What a pinned-trace test stores about one traced run: the trace
    digest, the report's trace section, and every k-th line of the JSONL
    export (so a mismatch can be localised without the parent tree)."""
    from repro.trace.export import jsonl_lines

    lines = list(jsonl_lines(result.trace))
    stride = max(1, len(lines) // n_lines)
    return {"digest": result.trace.digest(),
            "section": result.report().to_dict()["trace"],
            "lines": {str(i): lines[i]
                      for i in range(0, len(lines), stride)}}


def explain_trace_mismatch(result, pinned: Dict[str, object]) -> str:
    """Where a traced run departs from its pin: the first stored JSONL
    line that differs, else the first differing kind count."""
    from repro.trace.export import jsonl_lines

    lines = list(jsonl_lines(result.trace))
    for index, expected in sorted((int(i), line)
                                  for i, line in pinned["lines"].items()):
        got = lines[index] if index < len(lines) else "<no such line>"
        if got != expected:
            return (f"JSONL line {index} differs:\n  pinned {expected}\n"
                    f"  got    {got}")
    section = result.report().to_dict()["trace"]
    want, have = pinned["section"]["counts"], section["counts"]
    for kind in sorted(set(want) | set(have)):
        if want.get(kind) != have.get(kind):
            return (f"{kind}: {have.get(kind)} records, pinned "
                    f"{want.get(kind)}")
    return (f"no stored line or kind count differs: digest "
            f"{result.trace.digest()} (pinned {pinned['digest']}), "
            f"section {section} (pinned {pinned['section']})")
