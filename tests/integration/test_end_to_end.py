"""End-to-end flows over every topology x system x transport combination."""

import pytest

from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.runner import run_experiment
from repro.net.topology import FatTree, LeafSpine
from repro.sim.units import MILLISECOND
from repro.workload.spec import BackgroundSpec, IncastSpec

SYSTEMS = ["ecmp", "drill", "dibs", "vertigo"]
TRANSPORTS = ["reno", "dctcp", "swift"]


def _quick(system, transport, topology=None, **kwargs):
    # A gentle mix: the incast burst (4 x 10 KB) roughly matches one port
    # buffer, so loss is recoverable within the short window and the test
    # checks plumbing rather than burst tolerance (benches cover that).
    return ExperimentConfig.bench_profile(
        system=system, transport=transport, bg_load=0.1, incast_qps=300,
        incast_scale=4, incast_flow_bytes=10_000,
        sim_time_ns=60 * MILLISECOND, topology=topology, **kwargs)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_leaf_spine_light_load_completes_flows(system, transport):
    result = run_experiment(_quick(system, transport))
    metrics = result.metrics
    assert result.bg_flows_generated > 0
    assert result.queries_issued > 0
    assert metrics.flow_completion_pct() > 50
    assert metrics.query_completion_pct() > 30
    assert metrics.counters.delivered > 0


@pytest.mark.parametrize("system", ["ecmp", "dibs", "vertigo"])
def test_fat_tree_light_load_completes_flows(system):
    result = run_experiment(_quick(system, "dctcp", topology=FatTree(4)))
    assert result.metrics.flow_completion_pct() > 50
    assert result.metrics.query_completion_pct() > 30


def test_vertigo_completes_more_queries_than_ecmp_under_bursts():
    burst = dict(bg_load=0.1, incast_qps=300, incast_scale=8,
                 sim_time_ns=60 * MILLISECOND)
    ecmp = run_experiment(ExperimentConfig.bench_profile(
        system="ecmp", transport="dctcp", **burst))
    vertigo = run_experiment(ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", **burst))
    assert vertigo.metrics.query_completion_pct() \
        > ecmp.metrics.query_completion_pct()


def test_single_background_flow_fct_near_ideal():
    config = ExperimentConfig.bench_profile(
        system="ecmp", transport="dctcp", bg_load=0.0, incast_qps=None,
        sim_time_ns=50 * MILLISECOND)
    # Inject exactly one 100 KB flow by running the incast app with
    # scale 1 at a tiny rate.
    config.workload = WorkloadConfig((
        BackgroundSpec(load=0.0),
        IncastSpec(qps=20.0, scale=1, flow_bytes=100_000)))
    result = run_experiment(config)
    flows = [f for f in result.metrics.flows.values() if f.completed]
    assert flows
    # 100 KB at 200 Mbps is 4 ms of serialization; with headers and the
    # multi-hop store-and-forward path it must land well under 3x that.
    ideal_s = 100_000 * 8 / 200e6
    for flow in flows:
        assert flow.fct_ns / 1e9 < 3 * ideal_s


def test_vertigo_deflects_while_ecmp_drops_under_burst():
    burst = dict(bg_load=0.0, incast_qps=120, incast_scale=12,
                 sim_time_ns=40 * MILLISECOND)
    ecmp = run_experiment(ExperimentConfig.bench_profile(
        system="ecmp", transport="dctcp", **burst))
    vertigo = run_experiment(ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", **burst))
    assert ecmp.metrics.counters.total_drops > 0
    assert vertigo.metrics.counters.deflections > 0
    assert vertigo.metrics.counters.drop_rate() \
        < ecmp.metrics.counters.drop_rate()


def test_dibs_deflects_under_burst():
    result = run_experiment(ExperimentConfig.bench_profile(
        system="dibs", transport="dctcp", bg_load=0.0, incast_qps=120,
        incast_scale=12, sim_time_ns=40 * MILLISECOND))
    assert result.metrics.counters.deflections > 0


def test_mean_hops_reasonable_leaf_spine():
    result = run_experiment(_quick("ecmp", "dctcp"))
    hops = result.metrics.counters.mean_hops()
    # Intra-leaf = 1 switch hop, inter-leaf = 3; mixture in (1, 3].
    assert 1.0 <= hops <= 3.0


def test_deflection_increases_path_length():
    plain = run_experiment(_quick("ecmp", "dctcp"))
    deflecting = run_experiment(_quick("dibs", "dctcp"))
    assert deflecting.metrics.counters.mean_hops() \
        >= plain.metrics.counters.mean_hops()


def test_run_result_row_has_all_columns():
    result = run_experiment(_quick("vertigo", "dctcp"))
    row = result.row()
    for key in ("mean_fct_s", "p99_fct_s", "mean_qct_s", "p99_qct_s",
                "flow_completion_pct", "query_completion_pct",
                "goodput_gbps", "drop_pct", "deflections", "mean_hops",
                "reordered", "retransmissions"):
        assert key in row
