"""Figure 8: sweeping the incast scale (fan-in) at fixed rate and flow
size, 50% background load.

Paper sweeps 50..450 servers of 320 at 4000 QPS x 40 KB; the bench
profile sweeps the same fractions of its 32 hosts.
"""

from figures import Claim, Figure, Point, bench_config, run_figure

SYSTEMS = ["ecmp", "drill", "dibs", "vertigo"]
#: Fractions of the host pool queried, mirroring 50..450 of 320 hosts.
SCALES = [4, 8, 16, 24]
TOP = SCALES[-1]
QPS = 350.0
FLOW_BYTES = 10_000


FIGURES = [Figure(
    id="fig8",
    title="incast scale sweep (50% bg, fixed QPS and flow size)",
    paper="As incast scale grows 50->450, every system struggles but "
          "Vertigo completes up to 10x more queries; everyone's FCT climbs.",
    points=[Point(bench_config(system, "dctcp", bg_load=0.50,
                               incast_qps=QPS, incast_scale=scale,
                               incast_flow_bytes=FLOW_BYTES),
                  {"incast_scale": scale})
            for system in SYSTEMS for scale in SCALES],
    columns=["system", "incast_scale", "query_completion_pct", "mean_qct_s",
             "mean_fct_s", "p99_fct_s", "drop_pct"],
    claims=[
        *(Claim(f"Vertigo completes at least as many queries as {other} "
                f"at fan-in {TOP}",
                lambda v, other=other:
                v("query_completion_pct", system="vertigo", incast_scale=TOP)
                >= v("query_completion_pct", system=other, incast_scale=TOP))
          for other in ("ecmp", "drill", "dibs")),
        *(Claim(f"scale hurts {system}: no more completions at fan-in "
                f"{TOP} than at {SCALES[0]} (5-point allowance)",
                lambda v, system=system:
                v("query_completion_pct", system=system, incast_scale=TOP)
                <= v("query_completion_pct", system=system,
                     incast_scale=SCALES[0]) + 5)
          for system in SYSTEMS),
    ],
)]


def test_fig8_incast_scale(benchmark):
    run_figure(benchmark, *FIGURES)
