"""Digest compatibility and determinism of the workload spec subsystem.

Two contracts guard the API redesign:

1. **Legacy compatibility** — a config built from the historical flat
   kwargs (``bg_load=``, ``incast_qps=``, ...) must be digest-identical
   to the same mix written as explicit specs, and the uniform endpoint
   picks (:mod:`repro.workload.matrix`) must reproduce the pre-spec
   seed digest byte for byte.
2. **Determinism of the new generators** — coflow and duty-cycle must
   digest identically across repeat runs and across the
   serial/parallel executor boundary.
"""

import dataclasses
from collections import Counter

import pytest

from repro.experiments.digest import run_digest
from repro.experiments.parallel import run_many
from repro.experiments.runner import run_experiment
from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.metrics.collector import completion_times_s
from repro.sim.units import MILLISECOND
from repro.workload.spec import (
    BackgroundSpec,
    CoflowSpec,
    DutyCycleSpec,
    IncastSpec,
)

#: The bench-profile digest of the seed implementation (captured before
#: the workload subsystem landed).  If this changes, legacy runs are no
#: longer reproducible — that is a breaking change, not a test to update.
SEED_BENCH_DIGEST = \
    "9216ee97c1a4196611214222495d5753865f967fa962d3dec5b4df7eec1a7e9d"


def bench(workload=None, seed=1, sim_ms=5, **profile_kwargs):
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp",
        sim_time_ns=sim_ms * MILLISECOND, seed=seed, **profile_kwargs)
    if workload is not None:
        config = dataclasses.replace(config, workload=workload)
    return config


def test_uniform_skew_reproduces_seed_digest():
    config = bench(sim_ms=15, bg_load=0.2, incast_qps=60, incast_scale=6)
    assert run_digest(run_experiment(config)) == SEED_BENCH_DIGEST


def test_legacy_kwargs_and_explicit_specs_digest_identically():
    legacy = bench(bg_load=0.25, incast_qps=80, incast_scale=6)
    specs = bench(workload=WorkloadConfig((
        # The bench profile's defaults, written out as explicit specs.
        BackgroundSpec(load=0.25, size_cap=200_000),
        IncastSpec(qps=80, scale=6, flow_bytes=10_000),
    )))
    assert run_digest(run_experiment(legacy)) \
        == run_digest(run_experiment(specs))


@pytest.mark.parametrize("active", [
    BackgroundSpec(load=0.3, size_cap=200_000),
    IncastSpec(load=0.2, scale=6, flow_bytes=10_000),
], ids=["background", "incast"])
def test_a_zero_load_spec_leaves_no_trace(active):
    """An inactive spec draws nothing and numbers no stream: putting one
    ahead of an active spec of its kind changes nothing in the run."""
    idle = dataclasses.replace(active, load=0)
    alone = run_experiment(bench(WorkloadConfig((active,)), sim_ms=10))
    behind = run_experiment(bench(WorkloadConfig((idle, active)), sim_ms=10))
    assert (behind.bg_flows_generated, behind.queries_issued) \
        == (alone.bg_flows_generated, alone.queries_issued)
    assert run_digest(behind) == run_digest(alone)


def test_profile_kwargs_build_the_same_config_as_specs():
    flat = bench(bg_load=0.3, incast_qps=50, incast_scale=4).workload
    specs = WorkloadConfig((BackgroundSpec(load=0.3, size_cap=200_000),
                            IncastSpec(qps=50, scale=4, flow_bytes=10_000)))
    assert flat == specs


NEW_WORKLOADS = {
    "coflow_shuffle": WorkloadConfig((
        CoflowSpec(width=4, stages=2, cps=2000, flow_bytes=5_000),)),
    "coflow_pa": WorkloadConfig((
        CoflowSpec(width=6, stages=2, cps=2000, flow_bytes=5_000,
                   pattern="partition_aggregate"),)),
    "duty_cycle": WorkloadConfig(
        (DutyCycleSpec(load=0.3, duty=0.2, period_ns=MILLISECOND // 2),),
        warmup_ns=MILLISECOND, cooldown_ns=MILLISECOND),
    "duplicate_kinds": WorkloadConfig((
        BackgroundSpec(load=0.1),
        BackgroundSpec(load=0.1, distribution="web_search",
                       size_cap=100_000),
        CoflowSpec(width=3, cps=1000),)),
}


@pytest.mark.parametrize("name", sorted(NEW_WORKLOADS))
def test_new_generators_repeat_run_digest_stable(name):
    workload = NEW_WORKLOADS[name]
    first = run_experiment(bench(workload=workload))
    second = run_experiment(bench(workload=workload))
    assert run_digest(first) == run_digest(second)
    # The workload really generated traffic (the digest is not vacuous).
    assert first.metrics.flows


def test_new_generators_serial_vs_parallel_digests():
    configs = [bench(workload=NEW_WORKLOADS[name], seed=seed)
               for seed, name in enumerate(sorted(NEW_WORKLOADS), start=1)]
    serial = [run_digest(r) for r in run_many(configs, jobs=1)]
    parallel = [run_digest(r) for r in run_many(configs, jobs=2)]
    assert serial == parallel


def test_composed_specs_record_every_query_and_coflow_once():
    """Two incast specs and two coflow specs in one run: the collector
    numbers what every generator starts, so no record overwrites
    another and each query keeps its own fan-in."""
    result = run_experiment(bench(workload=WorkloadConfig((
        IncastSpec(qps=400, scale=8, flow_bytes=10_000),
        IncastSpec(qps=400, scale=4, flow_bytes=10_000),
        CoflowSpec(width=2, stages=2, cps=400, flow_bytes=5_000),
        CoflowSpec(width=3, cps=400, flow_bytes=5_000,
                   pattern="partition_aggregate"),
    )), sim_ms=15))
    metrics = result.metrics
    incast = [flow for flow in metrics.flows.values() if flow.is_incast]
    assert all(flow.dst == metrics.queries[flow.query_id].client
               for flow in incast)
    members = Counter(flow.query_id for flow in incast)
    for query in metrics.queries.values():
        assert query.flows_done <= members[query.query_id] <= query.n_flows
    members = Counter(flow.coflow_id for flow in metrics.flows.values())
    for coflow in metrics.coflows.values():
        assert coflow.flows_done <= members[coflow.coflow_id] \
            <= coflow.n_flows
    assert {query.n_flows for query in metrics.queries.values()} == {8, 4}
    assert len(metrics.coflows) >= 4 and len(metrics.queries) >= 8


def test_coflow_run_reports_cct_columns():
    result = run_experiment(bench(
        workload=NEW_WORKLOADS["coflow_shuffle"], sim_ms=10))
    assert result.coflows_launched > 0
    report = result.report()
    row = report.row()
    assert "mean_cct_s" in row and "p99_cct_s" in row
    assert row["mean_cct_s"] > 0
    assert report.run["coflows_recorded"] == len(result.metrics.coflows)
    # Coflow-free runs keep the historical row shape.
    plain = run_experiment(bench(bg_load=0.1))
    assert "mean_cct_s" not in plain.report().row()


def test_warmup_cooldown_trim_measurement_window():
    workload = WorkloadConfig((BackgroundSpec(load=0.3),),
                              warmup_ns=2 * MILLISECOND,
                              cooldown_ns=2 * MILLISECOND)
    result = run_experiment(bench(workload=workload, sim_ms=6))
    metrics = result.metrics
    assert metrics.window_start == 2 * MILLISECOND
    assert metrics.window_end == 4 * MILLISECOND
    starts = [f.start_ns for f in metrics.flows.values()]
    assert min(starts) < 2 * MILLISECOND          # traffic ran in warmup...
    assert len(completion_times_s(metrics.population(metrics.flows))) \
        < sum(1 for f in metrics.flows.values() if f.completed)


@pytest.mark.parametrize("system", ["vertigo", "ecmp"])
def test_no_window_is_a_window_spanning_the_run(system):
    # Every record starts inside [0, sim_time), so a window spanning the
    # run measures the population no window does: same report, same
    # digest.
    config = ExperimentConfig.bench_profile(
        system=system, sim_time_ns=20 * MILLISECOND, seed=3)
    result = run_experiment(config)
    before = (result.report().to_dict(), run_digest(result))
    assert result.metrics.window_end is None
    result.metrics.set_window(0, config.sim_time_ns)
    assert (result.report().to_dict(), run_digest(result)) == before


def test_window_swallowing_the_run_is_rejected():
    workload = WorkloadConfig((BackgroundSpec(load=0.3),),
                              warmup_ns=5 * MILLISECOND,
                              cooldown_ns=1 * MILLISECOND)
    with pytest.raises(ValueError):
        run_experiment(bench(workload=workload, sim_ms=5))
