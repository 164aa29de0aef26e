"""Figure 7: FCT and QCT distributions in a fat-tree under three traffic
mixes, with DCTCP and Swift.

The paper validates on fat-tree k=8 (128 hosts); the bench profile uses
k=4 (16 hosts) with the same load mixes.  CDFs are summarized as
percentiles.
"""

import pytest

from figures import (Claim, Figure, Point, bench_config, percentiles,
                     run_figure)
from repro.net.topology import FatTree

MIXES = [
    ("25bg+10inc", 0.25, 0.10),
    ("50bg+25inc", 0.50, 0.25),
    ("25bg+60inc", 0.25, 0.60),
]
SYSTEMS = ["ecmp", "dibs", "vertigo"]
HEAVY = "50bg+25inc"


def _distributions(result):
    return {**percentiles(result.metrics.fct_samples_s(), "fct_"),
            **percentiles(result.metrics.qct_samples_s(), "qct_")}


def _figure(transport):
    return Figure(
        id=f"fig7_{transport}",
        title=f"fat-tree k=4 FCT/QCT distributions ({transport})",
        paper="In a fat-tree, Vertigo cuts ECMP's QCT by 71% (DCTCP) and "
              "98% (Swift) under 50%+25% load, improves random "
              "deflection's tail, and Vertigo+Swift shows near-zero drops.",
        points=[Point(bench_config(system, transport, bg_load=bg,
                                   incast_load=incast, topology=FatTree(4),
                                   incast_scale=6), {"mix": mix})
                for mix, bg, incast in MIXES for system in SYSTEMS],
        row=_distributions,
        columns=["mix", "system", "transport",
                 *(f"{kind}_{cell}" for kind in ("fct", "qct")
                   for cell in ("p25", "p50", "p75", "p90", "p99", "n"))],
        claims=[
            # A system that completed no query has a NaN median: the
            # claim is then not evaluable, and says so.
            Claim("Vertigo's median QCT is within 1.5x of ECMP's (or "
                  "below it) in the heavy mix",
                  lambda v: v("qct_p50", system="vertigo", mix=HEAVY)
                  <= 1.5 * v("qct_p50", system="ecmp", mix=HEAVY)),
        ],
    )


FIGURES = [_figure(transport) for transport in ("dctcp", "swift")]


@pytest.mark.parametrize("figure", FIGURES, ids=["dctcp", "swift"])
def test_fig7_fattree(benchmark, figure):
    run_figure(benchmark, figure)
