"""Traces are a pure function of the seeded config.

The observability acceptance bar: the same seeds produce byte-identical
JSONL (and identical trace digests) whether the runs executed serially
or through the parallel sweep executor, and enabling tracing never
perturbs the simulation itself.
"""

import dataclasses

import pytest

from repro import ExperimentConfig, run_digest, run_experiment
from repro.experiments import run_many
from repro.sim.units import MILLISECOND
from repro.trace import TraceConfig, jsonl_lines, write_jsonl


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


def test_tracing_does_not_perturb_the_simulation():
    untraced = run_experiment(bench_config(seed=5))
    # Pure event tracing adds zero engine events and changes nothing.
    traced = run_experiment(bench_config(5, TraceConfig(level="packet")))
    assert traced.row() == untraced.row()
    assert traced.engine.events_executed == untraced.engine.events_executed
    # The sampler schedules its own (read-only) ticks — results still
    # identical, events_executed grows by exactly the tick count.
    sampled = run_experiment(traced_config("packet", seed=5))
    assert sampled.row() == untraced.row()
    ticks = len({record[1] for record in sampled.trace.samples
                 if record[0] == "sample.port"})
    assert ticks > 0
    assert sampled.engine.events_executed == \
        untraced.engine.events_executed + ticks


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
