"""Paper-scale feasibility: one simulated second on the full fabric.

The hybrid fidelity engine (:mod:`repro.net.fidelity`) makes the
paper's 320-server leaf-spine tractable in Python: links stay analytic
while quiet and demote to packet fidelity only where congestion signals
appear.

This is the feasibility gate for paper-scale reproduction work: if the
run stops covering its second or analytic residency collapses, the
hybrid engine no longer carries the full-scale runs.  Its wall time and
memory are the benchmark ledger's ``paperscale-hybrid`` workload.
"""

import dataclasses

from figures import Claim, Figure, Point

from repro.experiments.config import ExperimentConfig
from repro.net.fidelity import FidelityConfig
from repro.sim.units import SECOND

#: The bench profile's (and the paper's) incast fan-in.
INCAST_DEGREE = 12


def paper_hybrid_config() -> ExperimentConfig:
    # The demotion threshold is pinned to ~5x the incast degree via the
    # explicit ``demote_shares`` knob: worst-case link convergence at
    # fan-in 12 stays well inside it, so the fabric stays analytic
    # (EXPERIMENTS.md "Paper scale" says what wider fan-in does).
    config = ExperimentConfig.paper_profile(
        system="vertigo", transport="dctcp", bg_load=0.1,
        incast_qps=2000.0, incast_scale=INCAST_DEGREE,
        incast_flow_bytes=40_000)
    # One simulated second: several thousand incast queries' worth of
    # workload at the paper's scale.
    fidelity = FidelityConfig(mode="hybrid",
                              demote_shares=max(64, 5 * INCAST_DEGREE))
    return dataclasses.replace(config, sim_time_ns=1 * SECOND,
                               fidelity=fidelity)


def _feasibility(result):
    run = result.report().run
    return {
        "n_hosts": result.config.topology.n_hosts,
        "sim_s": result.engine.now / SECOND,
        "events": run["events_executed"],
        "flows_recorded": run["flows_recorded"],
        "queries_recorded": run["queries_recorded"],
        **{key: result.fidelity[key] for key in (
            "analytic_residency_permille", "analytic_rounds", "demotions",
            "promotions")},
    }


FIGURES = [Figure(
    id="paper_scale",
    title="320-server leaf-spine, 1 simulated second, hybrid fidelity",
    paper="All evaluation runs use the full 320-server leaf-spine (10 Gbps "
          "access, 40 Gbps fabric, 300 KB buffers) for multiple simulated "
          "seconds — far beyond pure packet-level Python, which sustains "
          "~100 k events/s (tens of minutes per simulated second at that "
          "scale).",
    points=[Point(paper_hybrid_config())],
    row=_feasibility,
    columns=["system", "transport", "n_hosts", "sim_s", "events",
             "flows_recorded", "queries_recorded", "query_completion_pct",
             "mean_qct_s",
             "analytic_residency_permille", "analytic_rounds", "demotions",
             "promotions"],
    claims=[
        Claim("the full paper geometry ran", lambda v: v("n_hosts") == 320),
        Claim("it covered the full simulated second",
              lambda v: v("sim_s") >= 1),
        Claim("substantive, not idle: over 10,000 flows resolved",
              lambda v: v("flows_recorded") > 10_000),
        Claim("over 100 fan-in queries resolved",
              lambda v: v("queries_recorded") > 100),
        Claim("over half of the queries completed",
              lambda v: v("query_completion_pct") > 50),
        # No demotion trigger fires at this operating point; demotion
        # and promotion are exercised by tests/*/test_fidelity.py.
        Claim("the fabric stayed dominantly analytic (>= 900 permille), "
              "which is what makes the scale affordable",
              lambda v: v("analytic_residency_permille") >= 900),
        Claim("over 10,000 analytic rounds were modelled",
              lambda v: v("analytic_rounds") > 10_000),
    ],
)]
