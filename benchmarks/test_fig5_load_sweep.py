"""Figure 5: mean/p99 FCT and QCT vs aggregate load at three background
levels (25%, 50%, 75%), all systems on DCTCP."""

from figures import Claim, Figure, Point, bench_config, incast_loads_for_totals

SYSTEMS = ["ecmp", "drill", "dibs", "vertigo"]
SWEEP = {
    0.25: [0.45, 0.65, 0.85],
    0.50: [0.60, 0.75, 0.90],
    0.75: [0.80, 0.90],
}


def _figure(bg_load, totals):
    bg_pct, top = round(100 * bg_load), round(100 * max(totals))
    at_top = {"load_pct": top}
    return Figure(
        id=f"fig5_bg{bg_pct}",
        title=f"load sweep at {bg_pct}% background (DCTCP)",
        paper="Vertigo holds steady mean/p99 FCT+QCT at every load mix; "
              "DIBS's QCT and FCT blow up with a 10-point load increase "
              "(6x / 21x); at 90% load Vertigo cuts DRILL/DIBS mean FCT by "
              "5.1x / 2.7x.",
        points=[Point(bench_config(system, "dctcp", bg_load=bg_load,
                                   incast_load=incast), {"bg_pct": bg_pct})
                for system in SYSTEMS
                for incast in incast_loads_for_totals(bg_load, totals)],
        columns=["system", "bg_pct", "load_pct", "mean_fct_s", "p99_fct_s",
                 "mean_qct_s", "p99_qct_s", "query_completion_pct",
                 "drop_pct"],
        claims=[
            *(Claim(f"Vertigo's mean QCT is below {other}'s at {top}% load",
                    lambda v, other=other:
                    v("mean_qct_s", system="vertigo", **at_top)
                    < v("mean_qct_s", system=other, **at_top))
              for other in ("ecmp", "drill")),
            Claim(f"Vertigo completes at least as many queries as DIBS at "
                  f"{top}% load",
                  lambda v:
                  v("query_completion_pct", system="vertigo", **at_top)
                  >= v("query_completion_pct", system="dibs", **at_top)),
        ],
    )


FIGURES = [_figure(bg_load, totals) for bg_load, totals in SWEEP.items()]
