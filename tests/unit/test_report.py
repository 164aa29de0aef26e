"""RunReport: the unified result surface."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    RunReport,
    format_table,
    run_experiment,
)
from repro.experiments.report import ROW_KEYS
from repro.trace import TraceConfig


@pytest.fixture(scope="module")
def result():
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.3,
        incast_load=0.1, incast_scale=4, sim_time_ns=10_000_000, seed=2)
    config.telemetry_interval_ns = 1_000_000
    config.trace = TraceConfig(level="flow", sample_period_ns=1_000_000)
    return run_experiment(config)


def test_report_row_matches_legacy_row(result):
    report = result.report()
    assert isinstance(report, RunReport)
    assert tuple(report.row().keys()) == ROW_KEYS
    assert report.row() == result.row()


def test_report_run_section(result):
    run = result.report().run
    assert run["seed"] == 2
    assert run["sim_time_ns"] == 10_000_000
    assert run["events_executed"] == result.engine.events_executed
    assert run["flows_recorded"] == len(result.metrics.flows)


def test_report_telemetry_section(result):
    telemetry = result.report().telemetry
    assert telemetry is not None
    assert set(telemetry) == {"mean_utilization", "microbursts",
                              "persistent", "samples"}
    assert telemetry["samples"] > 0


def test_report_trace_section(result):
    trace = result.report().trace
    assert trace is not None
    assert trace["level"] == "flow"
    assert trace["events"] == len(result.trace.events)
    assert trace["dropped_events"] == 0
    assert "flow.start" in trace["counts"]
    assert "sample.port" in trace["counts"]


def test_report_profile_section(result):
    profile = result.report().profile
    assert set(profile) == {"build", "run", "finalize"}
    assert all(seconds >= 0 for seconds in profile.values())


def test_report_to_dict_schema(result):
    view = result.report().to_dict()
    assert set(view) == {"row", "run", "drops", "telemetry", "trace",
                         "profile", "fidelity", "drops_by_class", "pfc"}
    assert tuple(view["row"].keys()) == ROW_KEYS


def test_untraced_report_sections_none():
    config = ExperimentConfig.bench_profile(
        system="ecmp", transport="dctcp", bg_load=0.1,
        sim_time_ns=2_000_000)
    report = run_experiment(config).report()
    assert report.telemetry is None
    assert report.trace is None


def test_format_table_accepts_reports_results_and_dicts(result):
    report = result.report()
    table = format_table([report, result, result.row()])
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["system", "transport"]
    assert len(lines) == 2 + 3  # header + divider + three rows
    assert "vertigo" in table
