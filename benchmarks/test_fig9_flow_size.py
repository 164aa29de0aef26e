"""Figure 9: growing the incast flow size at fixed fan-in and rate, 50%
background load.

Paper grows response flows from 1 KB to 180 KB at scale 100 x 4000 QPS;
the bench sweeps the same buffer-relative range.
"""

from figures import Claim, Figure, Point, bench_config

SERIES = [("ecmp", "reno"), ("ecmp", "dctcp"), ("drill", "dctcp"),
          ("dibs", "dctcp"), ("vertigo", "dctcp")]
FLOW_SIZES = [2_000, 10_000, 25_000, 45_000]
SCALE = 8
QPS = 300.0
#: The cells every claim compares: DCTCP rows at the largest flow size.
LARGEST = {"transport": "dctcp",
           "incast_flow_kb": FLOW_SIZES[-1] / 1000}


FIGURES = [Figure(
    id="fig9",
    title="incast flow size sweep (50% bg)",
    paper="Growing incast flows 1->180 KB: systems without flow-size "
          "information misclassify large incast flows; at 180 KB Vertigo's "
          "mean QCT is 68%/58% below DIBS/ECMP+DCTCP.",
    points=[Point(bench_config(system, transport, bg_load=0.50,
                               incast_qps=QPS, incast_scale=SCALE,
                               incast_flow_bytes=size),
                  {"incast_flow_kb": size / 1000})
            for system, transport in SERIES for size in FLOW_SIZES],
    columns=["system", "transport", "incast_flow_kb",
             "query_completion_pct", "mean_qct_s", "drop_pct"],
    claims=[
        Claim("Vertigo's mean QCT is below DIBS's at the largest flow size",
              lambda v: v("mean_qct_s", system="vertigo", **LARGEST)
              < v("mean_qct_s", system="dibs", **LARGEST)),
        # ECMP may complete *zero* queries at the largest size (its mean
        # QCT is then NaN), so it is compared on completion.
        Claim("Vertigo completes more queries than ECMP+DCTCP at the "
              "largest flow size",
              lambda v: v("query_completion_pct", system="vertigo", **LARGEST)
              > v("query_completion_pct", system="ecmp", **LARGEST)),
        Claim("Vertigo completes at least as many queries as DIBS at the "
              "largest flow size",
              lambda v: v("query_completion_pct", system="vertigo", **LARGEST)
              >= v("query_completion_pct", system="dibs", **LARGEST)),
    ],
)]
