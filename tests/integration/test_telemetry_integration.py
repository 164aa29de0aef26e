"""§5's congestion timeline, folded from a packet trace of a real run.

No run attaches a live monitor: ``examples/telemetry_monitoring.py``
folds a packet-level trace with a port sampler into classified
intervals (``congestion_timeline``) and per-port utilizations
(``port_utilizations``).  These tests hold that fold to what §5 asks of
it on runs of the experiment runner.
"""

from dataclasses import replace

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.units import MILLISECOND
from repro.trace.config import TraceConfig
from tests.helpers import example_module

FOLD = example_module("telemetry_monitoring")

PERIOD = 2 * MILLISECOND


def _run(system, **kwargs):
    defaults = dict(bg_load=0.2, incast_qps=200, incast_scale=10,
                    incast_flow_bytes=10_000,
                    sim_time_ns=30 * MILLISECOND)
    defaults.update(kwargs)
    config = ExperimentConfig.bench_profile(system=system,
                                            transport="dctcp", **defaults)
    result = run_experiment(replace(config, trace=TraceConfig(
        level="packet", sample_period_ns=PERIOD)))
    # A fold over a truncated ring would undercount.
    assert result.trace.dropped_events == result.trace.dropped_samples == 0
    return result


def _mean_utilization(result):
    utilizations = FOLD.port_utilizations(result.trace)
    return sum(utilizations) / len(utilizations)


def test_monitor_disabled_by_default():
    """An untraced run keeps nothing to fold and reports no telemetry."""
    config = ExperimentConfig.bench_profile(
        system="ecmp", bg_load=0.05, incast_qps=10, incast_scale=2,
        incast_flow_bytes=2000, sim_time_ns=5 * MILLISECOND)
    result = run_experiment(config)
    assert result.trace is None
    assert result.report().to_dict()["telemetry"] is None


def test_monitor_samples_whole_run():
    result = _run("vertigo")
    times = sorted({record[1] for record in result.trace.samples
                    if record[0] == "sample.port"})
    assert times == list(range(PERIOD, 30 * MILLISECOND + 1, PERIOD))
    n_ports = sum(len(s.ports) for s in result.network.switches.values())
    assert len(FOLD.port_utilizations(result.trace)) \
        == len(times) * n_ports


def test_vertigo_bursts_classified_as_microbursts_not_drops():
    events = FOLD.congestion_timeline(_run("vertigo").trace)
    microbursts = sum(1 for event in events if event.kind == "microburst")
    assert microbursts >= 1
    # Vertigo at this load absorbs nearly everything; drop-classified
    # intervals are the minority.
    assert microbursts >= len(events) - microbursts


def test_ecmp_bursts_classified_as_persistent():
    events = FOLD.congestion_timeline(_run("ecmp", incast_qps=300).trace)
    # No deflection exists in ECMP, so the only classified intervals are
    # drop-driven.
    assert events
    assert all(event.kind == "persistent" for event in events)


def test_utilization_tracks_offered_load_direction():
    light = _run("ecmp", bg_load=0.05, incast_qps=20)
    heavy = _run("ecmp", bg_load=0.6, incast_qps=200)
    assert _mean_utilization(heavy) > _mean_utilization(light)
