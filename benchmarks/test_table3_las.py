"""Table 3: SRPT vs flow aging (LAS) marking when flow sizes are unknown."""

from figures import Claim, Figure, Point, bench_config, incast_loads_for_totals
from repro.core.flowinfo import MarkingDiscipline

BG = 0.40
TOTALS = [0.55, 0.75, 0.95]
TOP = {"load_pct": round(100 * TOTALS[-1])}

SERIES = [
    ("dctcp-ecmp", "ecmp", {}),
    ("dctcp-dibs", "dibs", {}),
    ("vertigo-srpt", "vertigo", {}),
    ("vertigo-las", "vertigo",
     {"marking_discipline": MarkingDiscipline.LAS}),
]

FIGURES = [Figure(
    id="table3",
    title="SRPT vs LAS (flow aging) mean QCT",
    paper="LAS (flow aging) is worse than SRPT (up to 30% higher mean QCT) "
          "but still beats ECMP and DIBS by 52%/70% at 85% load.",
    points=[Point(bench_config(system, "dctcp", bg_load=BG,
                               incast_load=incast, **kwargs),
                  {"series": name})
            for name, system, kwargs in SERIES
            for incast in incast_loads_for_totals(BG, TOTALS)],
    columns=["series", "load_pct", "mean_qct_s", "query_completion_pct"],
    claims=[
        Claim("LAS's mean QCT is below ECMP's at the top load",
              lambda v: v("mean_qct_s", series="vertigo-las", **TOP)
              < v("mean_qct_s", series="dctcp-ecmp", **TOP)),
        # DIBS's mean QCT can *look* low at collapse because it only
        # completes the easy queries, so it is compared on completion.
        *(Claim(f"LAS completes more queries than {other} at the top load",
                lambda v, other=other:
                v("query_completion_pct", series="vertigo-las", **TOP)
                > v("query_completion_pct", series=other, **TOP))
          for other in ("dctcp-dibs", "dctcp-ecmp")),
        Claim("SRPT's advance knowledge is worth something: its mean QCT "
              "is at most LAS's at the top load",
              lambda v: v("mean_qct_s", series="vertigo-srpt", **TOP)
              <= v("mean_qct_s", series="vertigo-las", **TOP)),
        Claim("LAS stays within 5x of SRPT's mean QCT at the top load "
              "(paper: up to 30% apart)",
              lambda v: v("mean_qct_s", series="vertigo-las", **TOP)
              < 5 * v("mean_qct_s", series="vertigo-srpt", **TOP)),
    ],
)]
