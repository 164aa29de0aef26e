"""Coflow shuffle: CCT under deflection, ECMP, and a lossless fabric.

A two-stage all-to-all shuffle (width 6, so 72 flows per coflow with a
barrier between the stages) arrives as a Poisson process on top of
light background traffic; the metric is the coflow completion time.

Three fabrics absorb the same shuffle mix: Vertigo + DCTCP (selective
deflection), ECMP + DCTCP (hash placement, drops + retransmissions) and
ECMP + DCQCN + PFC (the RoCE-style lossless fabric).  That CCT
accounting and the stage barriers repeat their digest is
``tests/integration/test_pfc.py``'s to check.
"""

from dataclasses import replace

from figures import Claim, Figure, Point

from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.net.pfc import PfcConfig
from repro.sim.units import MILLISECOND
from repro.workload.spec import BackgroundSpec, CoflowSpec

#: (label, system, transport, lossless)
FABRICS = [
    ("vertigo+dctcp", "vertigo", "dctcp", False),
    ("ecmp+dctcp", "ecmp", "dctcp", False),
    ("ecmp+dcqcn+pfc", "ecmp", "dcqcn", True),
]
VERTIGO, ECMP, LOSSLESS = ({"fabric": label} for label, _, _, _ in FABRICS)


def _config(system: str, transport: str, lossless: bool) -> ExperimentConfig:
    workload = WorkloadConfig((
        BackgroundSpec(load=0.10, size_cap=200_000),
        # ~0.22 offered load of shuffle traffic (72 x 10 KB per coflow)
        # — but each stage lands as a synchronized 36-flow burst.
        CoflowSpec(width=6, stages=2, cps=250.0, flow_bytes=10_000),
    ))
    config = ExperimentConfig.bench_profile(
        system=system, transport=transport, workload=workload,
        sim_time_ns=120 * MILLISECOND, seed=7)
    if lossless:
        # XOFF under the 30 KB bench port buffer; auto headroom keeps
        # the fabric lossless while DCQCN's ECN loop reacts.
        config = replace(config, pfc=PfcConfig(
            enabled=True, num_classes=2, priority_map=(0, 1),
            xoff_bytes=9_000, xon_bytes=4_500))
    return config


FIGURES = [Figure(
    id="coflow_shuffle",
    title="two-stage shuffle CCT across fabrics",
    paper="No paper counterpart: Vertigo is evaluated on flow- and "
          "query-level tails; the coflow literature judges a fabric by the "
          "coflow completion time (last flow of the last stage), where one "
          "straggler holds a whole stage barrier — the synchronized-burst "
          "shape deflection targets.",
    points=[Point(_config(*fabric), {"fabric": label})
            for label, *fabric in FABRICS],
    row=lambda result: {"coflows_launched": result.coflows_launched},
    columns=["fabric", "mean_cct_s", "p99_cct_s", "coflow_completion_pct",
             "mean_fct_s", "drop_pct", "deflections", "retransmissions",
             "coflows_launched"],
    claims=[
        Claim("every run launched coflows",
              lambda v: min(v.all("coflows_launched")) > 0),
        Claim("CCT is first-class: every coflow run reports a mean CCT",
              lambda v: len(v.all("mean_cct_s")) == len(FABRICS)),
        Claim("deflection beats hash placement on mean CCT",
              lambda v: v("mean_cct_s", **VERTIGO) < v("mean_cct_s", **ECMP)),
        Claim("deflection beats the pause loop on mean CCT",
              lambda v: v("mean_cct_s", **VERTIGO)
              < v("mean_cct_s", **LOSSLESS)),
        Claim("more coflows finish under deflection than on the lossless "
              "fabric, and more there than under plain ECMP",
              lambda v: v("coflow_completion_pct", **VERTIGO)
              > v("coflow_completion_pct", **LOSSLESS)
              > v("coflow_completion_pct", **ECMP)),
        Claim("the lossless fabric really was lossless",
              lambda v: v("drop_pct", **LOSSLESS) == 0.0),
    ],
)]
