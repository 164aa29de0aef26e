"""Figure 10: varying the degree of burstiness at a fixed offered load.

The total load is pinned at 80% while the incast share of it grows (the
paper squeezes incast interarrivals while shrinking the background).
"""

from figures import Claim, Figure, Point, bench_config, run_figure

SYSTEMS = ["ecmp", "drill", "dibs", "vertigo"]
TOTAL = 0.80
INCAST_SHARES = [0.10, 0.30, 0.55]
LEAST, MOST = (round(100 * share)
               for share in (INCAST_SHARES[0], INCAST_SHARES[-1]))


FIGURES = [Figure(
    id="fig10",
    title="burstiness sweep at fixed 80% offered load",
    paper="At fixed 80% load with growing burstiness, QCT rises for all; "
          "Vertigo stays steadily low; DIBS fails once buffers hold "
          "background flows.",
    points=[Point(bench_config(system, "dctcp", bg_load=TOTAL - share,
                               incast_load=share),
                  {"incast_share_pct": round(100 * share)})
            for system in SYSTEMS for share in INCAST_SHARES],
    columns=["system", "incast_share_pct", "mean_qct_s",
             "query_completion_pct", "drop_pct"],
    claims=[
        *(Claim(f"Vertigo's mean QCT is below {other}'s at the burstiest "
                f"point ({MOST}% incast share)",
                lambda v, other=other:
                v("mean_qct_s", system="vertigo", incast_share_pct=MOST)
                < v("mean_qct_s", system=other, incast_share_pct=MOST))
          for other in ("ecmp", "drill", "dibs")),
        Claim("Vertigo's mean QCT rises by less than 5x across the sweep "
              "(steadily low latency)",
              lambda v:
              v("mean_qct_s", system="vertigo", incast_share_pct=MOST)
              < 5 * v("mean_qct_s", system="vertigo", incast_share_pct=LEAST)),
    ],
)]


def test_fig10_burstiness(benchmark):
    run_figure(benchmark, *FIGURES)
