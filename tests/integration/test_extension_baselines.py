"""Network-scale behavior of the extension baselines (LetFlow, PABO)."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.units import MILLISECOND


def _run(system, **kwargs):
    defaults = dict(bg_load=0.2, incast_qps=120, incast_scale=8,
                    incast_flow_bytes=10_000,
                    sim_time_ns=60 * MILLISECOND)
    defaults.update(kwargs)
    return run_experiment(ExperimentConfig.bench_profile(
        system=system, transport="dctcp", **defaults))


def test_letflow_completes_flows_and_queries():
    result = _run("letflow")
    assert result.report().row()["flow_completion_pct"] > 50
    assert result.report().row()["query_completion_pct"] > 20


def test_letflow_switches_flowlets_under_load():
    result = _run("letflow", bg_load=0.5)
    switches = sum(s.policy.flowlet_switches
                   for s in result.network.switches.values())
    assert switches > 0


def test_letflow_never_deflects():
    result = _run("letflow", bg_load=0.5)
    assert result.metrics.counters.deflections == 0


def test_pabo_bounces_under_incast():
    result = _run("pabo", incast_qps=250, incast_scale=12)
    assert result.metrics.counters.deflections > 0
    # Bounced packets revisit switches: longer average paths than ECMP.
    ecmp = _run("ecmp", incast_qps=250, incast_scale=12)
    assert result.metrics.counters.mean_hops() \
        > ecmp.metrics.counters.mean_hops()


def test_pabo_reduces_drops_vs_ecmp_at_moderate_burst():
    pabo = _run("pabo")
    ecmp = _run("ecmp")
    assert pabo.metrics.counters.drop_rate() \
        <= ecmp.metrics.counters.drop_rate()


def test_vertigo_beats_extension_baselines_under_heavy_incast():
    heavy = dict(bg_load=0.4, incast_qps=None, incast_load=0.4,
                 sim_time_ns=80 * MILLISECOND)
    results = {system: _run(system, **heavy)
               for system in ("letflow", "pabo", "vertigo")}
    completion = {system: result.report().row()["query_completion_pct"]
                  for system, result in results.items()}
    for system in ("letflow", "pabo"):
        assert completion["vertigo"] >= completion[system]


@pytest.mark.parametrize("system", ["letflow", "pabo"])
def test_extension_baselines_deterministic(system):
    a = _run(system, sim_time_ns=25 * MILLISECOND)
    b = _run(system, sim_time_ns=25 * MILLISECOND)
    assert a.row() == b.row()
