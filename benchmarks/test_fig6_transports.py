"""Figure 6: mean QCT across transports (TCP, DCTCP, Swift) plus the QCT
distribution at the top load (85% here, 75% in the paper)."""

from figures import (Claim, Figure, Point, bench_config,
                     incast_loads_for_totals, percentiles)
from repro.metrics.collector import completion_times_s

SERIES = [
    ("dibs", "reno"), ("dibs", "dctcp"), ("dibs", "swift"),
    ("vertigo", "reno"), ("vertigo", "dctcp"), ("vertigo", "swift"),
    ("ecmp", "swift"),
]
BG = 0.25
TOTALS = [0.45, 0.65, 0.85]

PAPER = ("Replacing DCTCP with TCP leads to up to 10x jump in DIBS's QCT "
         "and expedites collapse; Vertigo+TCP outperforms alternatives "
         "that use DCTCP and sits close to Vertigo+DCTCP; Swift variants "
         "dominate.")

POINTS = [Point(bench_config(system, transport, bg_load=BG,
                             incast_load=incast))
          for system, transport in SERIES
          for incast in incast_loads_for_totals(BG, TOTALS)]


def _vertigo_qct_band(v):
    qcts = [v("mean_qct_s", system="vertigo", transport=transport,
              load_pct=85) for transport in ("reno", "dctcp")]
    return max(qcts) < 3 * min(qcts)


def _vertigo_completion_band(v):
    done = v.all("query_completion_pct", system="vertigo", load_pct=85)
    return max(done) - min(done) < 20


# Mean QCT over *completed* queries understates a collapsed system (it
# only finishes the easy queries), so the load-bearing claims compare
# completion percentages.
FIGURES = [
    Figure(
        id="fig6a",
        title="mean QCT across transports (25% bg + incast sweep)",
        paper=PAPER, points=POINTS,
        columns=["system", "transport", "load_pct", "mean_qct_s",
                 "query_completion_pct", "drop_pct"],
        claims=[
            Claim("DIBS depends on DCTCP: under TCP Reno it completes fewer "
                  "queries at 65% load",
                  lambda v: v("query_completion_pct", system="dibs",
                              transport="reno", load_pct=65)
                  < v("query_completion_pct", system="dibs",
                      transport="dctcp", load_pct=65)),
            Claim("Vertigo's mean QCT at 85% load stays within 3x across "
                  "Reno and DCTCP",
                  _vertigo_qct_band),
            Claim("Vertigo's query completion at 85% load varies by under "
                  "20 points across the three transports",
                  _vertigo_completion_band),
            Claim("Vertigo+TCP completes more queries than DIBS+DCTCP at "
                  "85% load (the paper's headline for Fig. 6)",
                  lambda v: v("query_completion_pct", system="vertigo",
                              transport="reno", load_pct=85)
                  > v("query_completion_pct", system="dibs",
                      transport="dctcp", load_pct=85)),
        ]),
    Figure(
        id="fig6b",
        title="QCT distribution at 85% load (percentiles of Fig. 6b CDF)",
        paper=PAPER,
        points=[point for point in POINTS
                if round(100 * point.config.workload.total_load) == 85],
        row=lambda result: percentiles(completion_times_s(
            result.metrics.population(result.metrics.queries))),
        columns=["system", "transport", "p25", "p50", "p75", "p90", "p99",
                 "n"]),
]
