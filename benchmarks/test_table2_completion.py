"""Table 2: flow and query completion ratios at 75% load (50% background
+ 25% incast) under DCTCP and Swift."""

from figures import Claim, Figure, Point, bench_config

SYSTEMS = ["ecmp", "dibs", "vertigo"]
TRANSPORTS = ("dctcp", "swift")

FIGURES = [Figure(
    id="table2",
    title="flow/query completion at 75% load",
    paper="Completion at 75% load — DCTCP: 78.5/96.1/98.0% of flows and "
          "28.4/71.3/93.0% of queries for ECMP/DIBS/Vertigo; Swift lifts "
          "everyone (97.7/99.4/99.8 and 79.9/99.1/99.6).",
    points=[Point(bench_config(system, transport, bg_load=0.50,
                               incast_load=0.25))
            for transport in TRANSPORTS for system in SYSTEMS],
    columns=["transport", "system", "flow_completion_pct",
             "query_completion_pct", "drop_pct"],
    claims=[
        *(Claim(f"under {transport} Vertigo completes at least as many "
                f"queries as DIBS",
                lambda v, t=transport:
                v("query_completion_pct", transport=t, system="vertigo")
                >= v("query_completion_pct", transport=t, system="dibs"))
          for transport in TRANSPORTS),
        *(Claim(f"under {transport} Vertigo completes more queries than "
                f"ECMP",
                lambda v, t=transport:
                v("query_completion_pct", transport=t, system="vertigo")
                > v("query_completion_pct", transport=t, system="ecmp"))
          for transport in TRANSPORTS),
        Claim("Swift lifts ECMP's flow completion over DCTCP's (paper: "
              "78.5% -> 97.7%)",
              lambda v:
              v("flow_completion_pct", transport="swift", system="ecmp")
              > v("flow_completion_pct", transport="dctcp", system="ecmp")),
    ],
)]
