"""The paper's full-scale configuration is constructible and runs.

The 320-server leaf-spine and fat-tree k=8 are far too slow to sweep in
pure Python (DESIGN.md), but they must build correctly and move packets;
these tests run a few simulated milliseconds only.
"""

from dataclasses import replace

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.net.topology import paper_fat_tree
from repro.sim.units import MILLISECOND


def test_paper_leaf_spine_builds_and_runs():
    config = ExperimentConfig.paper_profile(
        system="vertigo", transport="dctcp", bg_load=0.05,
        incast_qps=2000.0, incast_scale=100, incast_flow_bytes=40_000)
    config = replace(config, sim_time_ns=2 * MILLISECOND)
    result = run_experiment(config)
    assert result.config.topology.n_hosts == 320
    assert result.metrics.counters.delivered > 0
    assert result.queries_issued >= 1
    # Full-scale geometry: 320 host ports + 2x32 fabric port-ends.
    n_ports = sum(len(s.ports) for s in result.network.switches.values())
    assert n_ports == 320 + 2 * 32


def test_paper_fat_tree_builds_and_runs():
    config = ExperimentConfig.paper_profile(
        system="dibs", transport="dctcp", bg_load=0.05,
        incast_qps=1000.0, incast_scale=50, incast_flow_bytes=40_000)
    config = replace(config, topology=paper_fat_tree(),
                     sim_time_ns=2 * MILLISECOND)
    result = run_experiment(config)
    assert len(result.network.switches) == 80
    assert result.metrics.counters.delivered > 0


def test_paper_scale_parameters_match_section_4_1():
    config = ExperimentConfig.paper_profile()
    from repro.experiments.runner import (
        derive_ecn_threshold,
        derive_ordering_timeout,
    )
    # DCTCP marking threshold of 65 packets and tau = 360 us.
    assert derive_ecn_threshold(config.network) == 65 * 1460
    assert derive_ordering_timeout(config.network) == 360_000
