"""Traces are a pure function of the seeded config.

The observability acceptance bar: the same seeds produce byte-identical
JSONL (and identical trace digests) whether the runs executed serially
or through the parallel sweep executor, and enabling tracing never
perturbs the simulation itself.
"""

import dataclasses
import json
import pathlib

import pytest

from repro import ExperimentConfig, run_digest, run_experiment
from repro.experiments.parallel import run_many
from repro.experiments.runner import EngineStats
from repro.net.fidelity import FidelityConfig
from repro.net.pfc import PfcConfig
from repro.sim.units import MILLISECOND
from repro.trace.config import TraceConfig
from repro.trace.export import jsonl_lines, write_jsonl
from repro.trace.tracer import EVENT_FIELDS
from repro.transport.base import TransportConfig
from repro.workload.spec import parse_workloads
from tests.helpers import explain_trace_mismatch, trace_fingerprint

PINS_PATH = pathlib.Path(__file__).parent.parent / "fixtures" \
    / "trace_pins.json"


def bench_config(seed=1, trace=None):
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.3, incast_load=0.1,
        incast_scale=4, sim_time_ns=10 * MILLISECOND, seed=seed)
    return dataclasses.replace(config, trace=trace)


def traced_config(level="packet", seed=1):
    return bench_config(seed, TraceConfig(level=level,
                                          sample_period_ns=1_000_000))


def jsonl_text(results):
    lines = []
    for result in results:
        lines.extend(jsonl_lines(result.trace))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("level", ["flow", "packet"])
def test_serial_vs_parallel_traces_byte_identical(level):
    serial = run_many([traced_config(level, seed) for seed in (1, 2)],
                      jobs=1)
    parallel = run_many([traced_config(level, seed) for seed in (1, 2)],
                        jobs=2)
    assert jsonl_text(serial) == jsonl_text(parallel)
    assert [run_digest(r) for r in serial] == \
        [run_digest(r) for r in parallel]
    assert [r.trace.digest() for r in serial] == \
        [r.trace.digest() for r in parallel]


def _feature_config(features, seed=5):
    """A 10 ms bench run of one feature combination, untraced."""
    system, transport, extra = features
    config = ExperimentConfig.bench_profile(
        system=system, transport=transport, bg_load=0.5, incast_load=0.25,
        incast_scale=12, sim_time_ns=10 * MILLISECOND, seed=seed)
    return dataclasses.replace(config, **extra)


FEATURES = {
    "ecmp-reno": ("ecmp", "reno", {}),
    "vertigo-dctcp": ("vertigo", "dctcp", {}),
    "ecmp-dcqcn-pfc": ("ecmp", "dcqcn", {"pfc": PfcConfig(
        enabled=True, num_classes=2, priority_map=(0, 1))}),
    "vertigo-hybrid": ("vertigo", "dctcp", {"fidelity": FidelityConfig(
        mode="hybrid", demote_shares=2)}),
}


@pytest.fixture(scope="module")
def untraced_runs():
    """Digest and event count of each feature combination, untraced."""
    runs = {}

    def run(name):
        if name not in runs:
            result = run_experiment(_feature_config(FEATURES[name]))
            runs[name] = (run_digest(result), result.engine.events_executed)
        return runs[name]
    return run


@pytest.mark.filterwarnings("ignore:fidelity demotion cascade")
@pytest.mark.parametrize("level", ["flow", "packet"])
@pytest.mark.parametrize("name", sorted(FEATURES))
def test_tracing_does_not_perturb_the_simulation(name, level, untraced_runs):
    digest, events_executed = untraced_runs(name)
    # Event tracing plus the sampler: the sampler schedules its own
    # (read-only) ticks, so events_executed grows by exactly the tick
    # count and nothing else about the run moves.
    traced = run_experiment(dataclasses.replace(
        _feature_config(FEATURES[name]),
        trace=TraceConfig(level=level, sample_period_ns=MILLISECOND)))
    ticks = len({record[1] for record in traced.trace.samples
                 if record[0] == "sample.port"})
    assert ticks > 0
    assert traced.engine.events_executed == events_executed + ticks
    assert traced.trace.counts()["pkt.enqueue" if level == "packet"
                                 else "flow.start"] > 0
    stripped = dataclasses.replace(
        traced.portable(), trace=None,
        engine=EngineStats(now=traced.engine.now,
                           events_executed=events_executed))
    assert run_digest(stripped) == digest


# -- exported bytes, pinned ---------------------------------------------------
#
# Four 10 ms runs that between them emit every kind a run can.  Their
# trace digests, report sections and every k-th exported line are stored
# in tests/fixtures/trace_pins.json; a change of exported bytes is a
# deliberate act (re-record with ``record_pins()`` below, and expect
# benchmarks/ledger/baseline.json to need the same).

def _pinned_configs():
    def bench(system, transport, **profile):
        return ExperimentConfig.bench_profile(
            system=system, transport=transport,
            sim_time_ns=10 * MILLISECOND, seed=1, **profile)

    incast = dict(bg_load=0.5, incast_load=0.25, incast_scale=12)
    return {
        "vertigo-packet": dataclasses.replace(
            bench("vertigo", "dctcp", **incast),
            trace=TraceConfig(level="packet", sample_period_ns=100_000)),
        # sample.lane, pfc.pause / pfc.resume, DCQCN's cc detail.
        "pfc-flow": dataclasses.replace(
            bench("ecmp", "dcqcn", **incast),
            pfc=PfcConfig(enabled=True, num_classes=2, priority_map=(0, 1)),
            trace=TraceConfig(level="flow", sample_period_ns=500_000)),
        # fid.mode, sample.fid.
        "hybrid-packet": dataclasses.replace(
            bench("vertigo", "dctcp", **incast),
            fidelity=FidelityConfig(mode="hybrid", demote_shares=2),
            trace=TraceConfig(level="packet", sample_period_ns=500_000)),
        # coflow.*, pkt.drop, cc.rto (RTOs short enough to fire inside
        # 10 ms), Swift's cc detail.
        "coflow-swift": dataclasses.replace(
            bench("ecmp", "swift", workload=parse_workloads([
                "coflow:width=4,stages=2,cps=1500,pattern=shuffle,"
                "bytes=6000"])),
            transport=TransportConfig(init_rto_ns=MILLISECOND,
                                      min_rto_ns=MILLISECOND // 2),
            trace=TraceConfig(level="packet", sample_period_ns=500_000)),
    }


def record_pins() -> None:
    """Rewrite the fixture from the current tree."""
    import warnings

    pins = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, config in _pinned_configs().items():
            pins[name] = trace_fingerprint(run_experiment(config))
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


PINS = json.loads(PINS_PATH.read_text())


@pytest.mark.filterwarnings("ignore:fidelity demotion cascade")
@pytest.mark.parametrize("name", sorted(PINS))
def test_exported_bytes_are_pinned(name):
    result = run_experiment(_pinned_configs()[name])
    pinned = PINS[name]
    got = (result.trace.digest(), result.report().to_dict()["trace"])
    assert got == (pinned["digest"], pinned["section"]), \
        explain_trace_mismatch(result, pinned)


def test_pinned_runs_emit_every_kind():
    emitted = set()
    for pinned in PINS.values():
        emitted.update(pinned["section"]["counts"])
    assert emitted == set(EVENT_FIELDS)


def test_untraced_digest_unchanged_by_trace_feature():
    """An untraced run's digest must not mention tracing at all."""
    result = run_experiment(bench_config())
    assert result.trace is None
    digest_1 = run_digest(result)
    digest_2 = run_digest(result)
    assert digest_1 == digest_2


def test_multi_seed_jsonl_file_concatenates_in_run_order(tmp_path):
    results = run_many([traced_config("flow", seed) for seed in (3, 1, 2)])
    path = str(tmp_path / "multi.jsonl")
    write_jsonl([r.trace for r in results], path)
    import json
    seeds = [json.loads(line)["seed"] for line in open(path)
             if '"trace.meta"' in line]
    assert seeds == [3, 1, 2]


def test_trace_config_rides_config_through_workers():
    config = traced_config("flow", seed=7)
    assert config.trace == TraceConfig(level="flow",
                                       sample_period_ns=1_000_000)
    [result] = run_many([config], jobs=2)
    assert result.trace is not None
    assert result.trace.meta["seed"] == 7


def test_traced_run_without_checkpointing_is_one_engine_span():
    """Checkpointing off = one epoch = one engine.run() call."""
    result = run_experiment(traced_config("flow", seed=7))
    assert result.config.checkpoint is None
    assert result.trace.counts()["engine.span"] == 1
