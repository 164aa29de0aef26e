"""Telemetry monitor attached through the experiment runner."""

from dataclasses import replace

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.units import MILLISECOND


def _cfg(system, **kwargs):
    defaults = dict(bg_load=0.2, incast_qps=200, incast_scale=10,
                    incast_flow_bytes=10_000,
                    sim_time_ns=30 * MILLISECOND)
    defaults.update(kwargs)
    config = ExperimentConfig.bench_profile(system=system,
                                            transport="dctcp", **defaults)
    return replace(config, telemetry_interval_ns=2 * MILLISECOND)


def test_monitor_disabled_by_default():
    config = ExperimentConfig.bench_profile(
        system="ecmp", bg_load=0.05, incast_qps=10, incast_scale=2,
        incast_flow_bytes=2000, sim_time_ns=5 * MILLISECOND)
    result = run_experiment(config)
    assert result.telemetry is None


def test_monitor_samples_whole_run():
    result = run_experiment(_cfg("vertigo"))
    monitor = result.telemetry
    times = sorted({s.time_ns for s in monitor.samples})
    assert len(times) == 15  # ticks at 2, 4, ..., 30 ms inclusive
    n_ports = sum(len(s.ports) for s in result.network.switches.values())
    assert len(monitor.samples) == len(times) * n_ports


def test_vertigo_bursts_classified_as_microbursts_not_drops():
    result = run_experiment(_cfg("vertigo"))
    monitor = result.telemetry
    assert monitor.microburst_count() >= 1
    # Vertigo at this load absorbs nearly everything; drop-classified
    # intervals are the minority.
    assert monitor.microburst_count() >= monitor.persistent_count()


def test_ecmp_bursts_classified_as_persistent():
    result = run_experiment(_cfg("ecmp", incast_qps=300))
    monitor = result.telemetry
    # No deflection exists in ECMP, so the only classified intervals are
    # drop-driven.
    assert monitor.microburst_count() == 0
    assert monitor.persistent_count() >= 1


def test_utilization_tracks_offered_load_direction():
    light = run_experiment(_cfg("ecmp", bg_load=0.05, incast_qps=20))
    heavy = run_experiment(_cfg("ecmp", bg_load=0.6, incast_qps=200))
    assert heavy.telemetry.mean_utilization() \
        > light.telemetry.mean_utilization()
