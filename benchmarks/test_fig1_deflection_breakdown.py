"""Figure 1: random packet deflection under a growing incast load.

Paper setup (§2): 15% background traffic plus an incast workload whose
rate sweeps the aggregate load; TCP Reno+ECMP, DCTCP+ECMP, and random
deflection (DIBS)+DCTCP.  Six panels: (a) incast query completion %,
(b) mean QCT, (c) flow completion %, (d) mean FCT, (e) overall goodput,
(f) elephant-flow goodput.
"""

from figures import Claim, Figure, Point, bench_config, incast_loads_for_totals

SERIES = [
    ("reno", "ecmp", "TCP Reno+ECMP"),
    ("dctcp", "ecmp", "DCTCP+ECMP"),
    ("dctcp", "dibs", "RandDeflect+DCTCP"),
]
TOTALS = [0.35, 0.55, 0.75, 0.90]
BG = 0.15
DIBS, ECMP = "RandDeflect+DCTCP", "DCTCP+ECMP"


def _elephants(result):
    goodput_bps = result.metrics.goodput_bps(result.duration_ns,
                                             min_size=100_000)
    # Reporting boundary: Mbit/s for the table.
    return {"elephant_goodput_mbps": goodput_bps / 1e6}  # noqa: VR003


def _qct_ratio(v, load):
    return (v("mean_qct_s", series=DIBS, load_pct=load)
            / v("mean_qct_s", series=ECMP, load_pct=load))


FIGURES = [Figure(
    id="fig1",
    title="random deflection breaks under load (15% bg + incast sweep)",
    paper="Random deflection (DIBS) wins at low load but 'starts to break "
          "as the aggregate load passes 65%': query completions collapse, "
          "QCT/FCT overtake ECMP baselines, paths lengthen ~20%, elephant "
          "goodput craters.",
    points=[Point(bench_config(system, transport, bg_load=BG,
                               incast_load=incast), {"series": label})
            for transport, system, label in SERIES
            for incast in incast_loads_for_totals(BG, TOTALS)],
    row=_elephants,
    columns=["series", "load_pct", "query_completion_pct", "mean_qct_s",
             "flow_completion_pct", "mean_fct_s", "goodput_gbps",
             "elephant_goodput_mbps", "drop_pct", "mean_hops"],
    claims=[
        Claim("every series reports a mean QCT at every load",
              lambda v: len(v.all("mean_qct_s")) == len(SERIES) * len(TOTALS)),
        Claim("deflection beats plain ECMP on mean QCT at the lowest load",
              lambda v: v("mean_qct_s", series=DIBS, load_pct=35)
              < v("mean_qct_s", series=ECMP, load_pct=35)),
        Claim("its QCT advantage shrinks or inverts at the highest load",
              lambda v: _qct_ratio(v, 90) > _qct_ratio(v, 35)),
        Claim("deflection lengthens paths by over 10% at the highest load "
              "(paper: ~20%)",
              lambda v: v("mean_hops", series=DIBS, load_pct=90)
              > 1.1 * v("mean_hops", series=ECMP, load_pct=90)),
    ],
)]
