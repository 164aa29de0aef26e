"""The one port sampler, and §5's congestion timeline folded from what
it records (``examples/telemetry_monitoring.py``).

:class:`~repro.trace.sampler.TraceSampler` owns the port table and the
``bytes_sent`` delta -> utilization arithmetic; the example folds its
``sample.port`` records and the ``pkt.deflect`` / ``pkt.drop`` events
into classified intervals.
"""

import pickle
from dataclasses import replace
from types import SimpleNamespace

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
from repro.trace.config import TraceConfig
from repro.trace.sampler import TraceSampler
from repro.trace.tracer import Tracer
from repro.transport.reno import RenoSender
from tests.helpers import example_module

FOLD = example_module("telemetry_monitoring")


def _idle_network():
    engine = Engine()
    metrics = MetricsCollector()
    network = build_network(
        engine, LeafSpine(2, 2, 1), NetworkParams(), metrics,
        HostStackConfig(transport_cls=RenoSender),
        lambda s, r: EcmpPolicy(s, r), RngRegistry(1))
    return engine, network


def _sampled(period_ns=100_000):
    engine, network = _idle_network()
    tracer = Tracer(TraceConfig(level="flow", sample_period_ns=period_ns))
    return engine, network, tracer, TraceSampler(engine, network, tracer,
                                                 period_ns)


def _tick_times(tracer):
    return {record[1] for record in tracer.detach().samples
            if record[0] == "sample.port"}


def _trace(samples, events):
    """A stand-in for a detached trace: just the two record logs."""
    return SimpleNamespace(samples=samples, events=events)


def _deflect(t):
    return ("pkt.deflect", t, "leaf0", 1, 2, 7, 0, 1)


def _drop(t):
    return ("pkt.drop", t, "leaf0", "overflow", 7, 0, 1500)


@pytest.fixture(scope="module")
def vertigo_run():
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.0, incast_qps=200,
        incast_scale=10, incast_flow_bytes=10_000,
        sim_time_ns=20 * MILLISECOND)
    return run_experiment(replace(config, trace=TraceConfig(
        level="packet", sample_period_ns=MILLISECOND)))


def test_interval_validation():
    engine, network = _idle_network()
    with pytest.raises(ValueError):
        TraceSampler(engine, network, Tracer(), period_ns=0)


def test_idle_network_samples_zero_utilization():
    engine, _, tracer, sampler = _sampled()
    sampler.start()
    engine.run(until=1_000_000)
    trace = tracer.detach()
    utilizations = FOLD.port_utilizations(trace)
    assert utilizations and set(utilizations) == {0.0}
    assert FOLD.congestion_timeline(trace) == []


def test_start_is_idempotent():
    engine, _, tracer, sampler = _sampled()
    sampler.start()
    sampler.start()
    engine.run(until=250_000)
    assert _tick_times(tracer) == {100_000, 200_000}


def test_active_flow_registers_utilization():
    engine, network, tracer, sampler = _sampled(period_ns=500_000)
    sampler.start()
    network.hosts[1].open_receiver(1, peer=0, size=200_000)
    sender = network.hosts[0].open_sender(1, dst=1, size=200_000)
    sender.start()
    engine.run(until=5_000_000)
    utilizations = FOLD.port_utilizations(tracer.detach())
    assert max(utilizations) > 0.3


def test_microburst_detected_in_live_vertigo_run(vertigo_run):
    assert vertigo_run.metrics.counters.deflections > 0
    # Deflection absorbed the bursts: the fold must flag microburst
    # intervals that a drop-based monitor would miss.
    kinds = [event.kind for event in
             FOLD.congestion_timeline(vertigo_run.trace)]
    assert "microburst" in kinds
    assert sum(FOLD.port_utilizations(vertigo_run.trace)) > 0.0


def test_persistent_congestion_classified_on_drops():
    trace = _trace(
        samples=[("sample.port", 100_000, "leaf0", 0, 0, 0, 0.1)],
        events=[_deflect(1_000 + t) for t in range(50)] + [_drop(60_000)])
    events = FOLD.congestion_timeline(trace)
    assert [event.kind for event in events] == ["persistent"]  # drops win
    assert (events[0].deflections, events[0].drops) == (50, 1)


def test_event_records_hottest_port():
    threshold = FOLD.MICROBURST_DEFLECTIONS
    trace = _trace(
        samples=[("sample.port", 100_000, "leaf0", 0, 0, 0, 0.2),
                 ("sample.port", 100_000, "leaf1", 2, 0, 0, 0.7),
                 ("sample.port", 100_000, "spine0", 1, 0, 0, 0.7),
                 ("sample.port", 200_000, "leaf0", 0, 0, 0, 0.9)],
        # A record at a tick's own time counts toward that tick; one
        # after the last tick toward none.
        events=[_deflect(100_000 - t) for t in range(threshold)]
        + [_deflect(100_001), _deflect(200_001)])
    (event,) = FOLD.congestion_timeline(trace)
    assert (event.time_ns, event.kind, event.deflections, event.drops) \
        == (100_000, "microburst", threshold, 0)
    # The first port with the strictly greatest utilization.
    assert (event.hottest_port, event.hottest_utilization) \
        == (("leaf1", 2), 0.7)


def test_stop_halts_sampling():
    engine, _, tracer, sampler = _sampled()
    sampler.start()
    engine.run(until=250_000)
    sampler.stop()
    engine.run(until=1_000_000)
    assert _tick_times(tracer) == {100_000, 200_000}
    # stop() is idempotent and start() resumes cleanly afterwards.
    sampler.stop()
    sampler.start()
    engine.run(until=1_150_000)
    assert max(_tick_times(tracer)) > 1_000_000


def test_detached_monitor_keeps_its_observations(vertigo_run):
    """The detached trace is the whole record: it pickles, and folds to
    the same timeline after the round trip."""
    trace = vertigo_run.trace
    restored = pickle.loads(pickle.dumps(trace))
    assert FOLD.congestion_timeline(trace)
    assert FOLD.congestion_timeline(restored) \
        == FOLD.congestion_timeline(trace)
    assert FOLD.port_utilizations(restored) \
        == FOLD.port_utilizations(trace)
