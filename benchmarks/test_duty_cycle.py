"""Duty-cycle sweep: the same offered load at growing burstiness.

network_tester's sweep dimension: hold the bytes per period fixed and
squeeze them into an ever smaller *on* fraction, so mean load stays
constant while the instantaneous on-window load grows as ``1/duty``.
At ``duty=1.0`` this is plain Poisson background; at ``duty=0.1`` the
same bytes arrive in 10x bursts with dead air between them.

Flows are capped at 20 KB so one burst is many flows arriving inside
the on-window (the regime network_tester probes), not one long flow
smeared across periods.  The first and last periods are excluded from
every metric via the workload's warmup/cooldown window, so the table
reports steady-state burst behavior, not ramp artifacts.
"""

from figures import Claim, Figure, Point

from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.sim.units import MILLISECOND
from repro.workload.spec import DutyCycleSpec

PERIOD_NS = 5 * MILLISECOND
#: Two periods of warmup and cooldown excluded from every metric.
WINDOW_NS = 2 * PERIOD_NS

SYSTEMS = ["ecmp", "vertigo"]
DUTY_PCTS = [100, 50, 25, 10]
LOAD = 0.5
ECMP, VERTIGO = ({"system": system} for system in SYSTEMS)


def _config(system: str, duty_pct: int) -> ExperimentConfig:
    workload = WorkloadConfig(
        (DutyCycleSpec(load=LOAD, duty=duty_pct / 100, period_ns=PERIOD_NS,
                       size_cap=20_000),),
        warmup_ns=WINDOW_NS, cooldown_ns=WINDOW_NS)
    return ExperimentConfig.bench_profile(
        system=system, transport="dctcp", workload=workload,
        sim_time_ns=60 * MILLISECOND, seed=5)


def _tail_gap(v, duty_pct):
    return (v("p99_fct_s", duty_pct=duty_pct, **ECMP)
            - v("p99_fct_s", duty_pct=duty_pct, **VERTIGO))


FIGURES = [Figure(
    id="duty_cycle",
    title=f"duty-cycle sweep at fixed {LOAD:.0%} load: the same bytes per "
          "5 ms period squeezed into duty% of it",
    paper="§2 argues burst *shape*, not mean load, is what breaks "
          "shallow-buffered fabrics; network_tester's duty-cycle sweep "
          "makes that a controlled axis (no paper counterpart).",
    points=[Point(_config(system, pct), {"duty_pct": pct})
            for system in SYSTEMS for pct in DUTY_PCTS],
    columns=["system", "duty_pct", "mean_fct_s", "p99_fct_s",
             "flow_completion_pct", "goodput_gbps", "drop_pct",
             "deflections"],
    claims=[
        Claim("burstiness hurts the hashed path: ECMP's p99 FCT is higher "
              "at duty 10% than at 100%",
              lambda v: v("p99_fct_s", duty_pct=10, **ECMP)
              > v("p99_fct_s", duty_pct=100, **ECMP)),
        Claim("deflection keeps Vertigo's p99 FCT at duty 10% within 1.5x "
              "of duty 100%",
              lambda v: v("p99_fct_s", duty_pct=10, **VERTIGO)
              < 1.5 * v("p99_fct_s", duty_pct=100, **VERTIGO)),
        *(Claim(f"Vertigo's p99 FCT is below ECMP's at duty {pct}%",
                lambda v, pct=pct: v("p99_fct_s", duty_pct=pct, **VERTIGO)
                < v("p99_fct_s", duty_pct=pct, **ECMP))
          for pct in DUTY_PCTS),
        *(Claim(f"Vertigo completes at least as many flows as ECMP at "
                f"duty {pct}%",
                lambda v, pct=pct:
                v("flow_completion_pct", duty_pct=pct, **VERTIGO)
                >= v("flow_completion_pct", duty_pct=pct, **ECMP))
          for pct in DUTY_PCTS),
        Claim("the Vertigo-vs-ECMP p99 gap is wider at duty 10% than at "
              "100%",
              lambda v: _tail_gap(v, 10) > _tail_gap(v, 100)),
    ],
)]
