"""Deflection-aware telemetry monitor (§5 extension)."""

import pickle
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.forwarding.ecmp import EcmpPolicy
from repro.host.host import HostStackConfig
from repro.metrics.collector import MetricsCollector
from repro.net.builder import NetworkParams, build_network
from repro.net.topology import LeafSpine
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import MILLISECOND
from repro.telemetry.monitor import TelemetryMonitor
from repro.transport.reno import RenoSender


def _idle_network():
    engine = Engine()
    metrics = MetricsCollector()
    network = build_network(
        engine, LeafSpine(2, 2, 1), NetworkParams(), metrics,
        HostStackConfig(transport_cls=RenoSender),
        lambda s, r: EcmpPolicy(s, r), RngRegistry(1))
    return engine, network


def test_interval_validation():
    engine, network = _idle_network()
    with pytest.raises(ValueError):
        TelemetryMonitor(engine, network, interval_ns=0)


def test_idle_network_samples_zero_utilization():
    engine, network = _idle_network()
    monitor = TelemetryMonitor(engine, network, interval_ns=100_000)
    monitor.start()
    engine.run(until=1_000_000)
    assert monitor.samples
    assert monitor.mean_utilization() == 0.0
    assert monitor.events == []


def test_start_is_idempotent():
    engine, network = _idle_network()
    monitor = TelemetryMonitor(engine, network, interval_ns=100_000)
    monitor.start()
    monitor.start()
    engine.run(until=250_000)
    ticks = {s.time_ns for s in monitor.samples}
    assert ticks == {100_000, 200_000}


def test_active_flow_registers_utilization():
    engine, network = _idle_network()
    monitor = TelemetryMonitor(engine, network, interval_ns=500_000)
    monitor.start()
    network.hosts[1].open_receiver(1, peer=0, size=200_000)
    sender = network.hosts[0].open_sender(1, dst=1, size=200_000)
    sender.start()
    engine.run(until=5_000_000)
    assert monitor.mean_utilization() > 0.0
    busiest = max(monitor.samples, key=lambda s: s.utilization)
    assert busiest.utilization > 0.3


def test_microburst_detected_in_live_vertigo_run():
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.0, incast_qps=200,
        incast_scale=10, incast_flow_bytes=10_000,
        sim_time_ns=20 * MILLISECOND)
    result = run_experiment(replace(config, telemetry_interval_ns=MILLISECOND))
    monitor = result.telemetry
    assert monitor is not None
    assert result.metrics.counters.deflections > 0
    # Deflection absorbed the bursts: telemetry must flag microburst
    # intervals that a drop-based monitor would miss.
    assert monitor.microburst_count() >= 1
    assert monitor.mean_utilization() > 0.0


def test_persistent_congestion_classified_on_drops():
    engine, network = _idle_network()
    monitor = TelemetryMonitor(engine, network, interval_ns=100_000)
    monitor.start()
    network.metrics.counters.class_drops[(0, "overflow")] += 5
    network.metrics.counters.deflections += 50
    engine.run(until=150_000)
    assert monitor.persistent_count() == 1
    assert monitor.microburst_count() == 0  # drops dominate the label


def test_event_records_hottest_port(monkeypatch):
    monkeypatch.setattr(TelemetryMonitor, "MICROBURST_DEFLECTIONS", 1)
    engine, network = _idle_network()
    monitor = TelemetryMonitor(engine, network, interval_ns=100_000)
    monitor.start()
    network.metrics.counters.deflections += 3
    engine.run(until=150_000)
    assert len(monitor.events) == 1
    event = monitor.events[0]
    assert event.kind == "microburst"
    assert event.deflections == 3
    assert event.hottest_port[0] in network.switches


def test_stop_halts_sampling():
    engine, network = _idle_network()
    monitor = TelemetryMonitor(engine, network, interval_ns=100_000)
    monitor.start()
    engine.run(until=250_000)
    monitor.stop()
    engine.run(until=1_000_000)
    assert {s.time_ns for s in monitor.samples} == {100_000, 200_000}
    # stop() is idempotent and start() resumes cleanly afterwards.
    monitor.stop()
    monitor.start()
    engine.run(until=1_150_000)
    assert max(s.time_ns for s in monitor.samples) > 1_000_000


def test_detached_monitor_keeps_its_observations(monkeypatch):
    monkeypatch.setattr(TelemetryMonitor, "MICROBURST_DEFLECTIONS", 1)
    engine, network = _idle_network()
    monitor = TelemetryMonitor(engine, network, interval_ns=100_000)
    monitor.start()
    network.metrics.counters.deflections += 3
    engine.run(until=250_000)
    monitor.detach()
    n_samples = len(monitor.samples)
    n_ports = sum(len(s.ports) for s in network.switches.values())
    assert n_samples == 2 * n_ports               # ticks at 100 and 200 us
    # Off the calendar: the engine running on adds nothing ...
    engine.run(until=1_000_000)
    assert len(monitor.samples) == n_samples
    # ... and off the live world, so the monitor itself is the record.
    assert monitor.engine is None and monitor.network is None
    assert monitor._ports == []
    restored = pickle.loads(pickle.dumps(monitor))
    assert restored.samples == monitor.samples
    assert restored.microburst_count() == 1
    assert restored.section() == monitor.section()
    assert restored.mean_utilization() == pytest.approx(
        sum(s.utilization for s in monitor.samples) / n_samples)
