"""Figure 13: sensitivity of flow completion times to the reordering
timeout (tau).

Paper sweeps tau from 120 us to 1.08 ms around its derived 360 us; the
bench sweeps the same 1/3x..3x band around the *derived* tau of the
scaled network.
"""

from figures import Claim, Figure, Point, bench_config, run_figure
from repro.experiments.runner import derive_ordering_timeout

LOAD = dict(bg_load=0.40, incast_load=0.35)
TAU0 = derive_ordering_timeout(bench_config("vertigo", **LOAD).network)
TAUS = [TAU0 // 3, (2 * TAU0) // 3, TAU0, 2 * TAU0, 3 * TAU0]
SHORTEST_US, LONGEST_US = round(TAUS[0] / 1000), round(TAUS[-1] / 1000)

FIGURES = [Figure(
    id="fig13",
    title=f"reordering timeout (tau) sweep around the derived "
          f"{TAU0 / 1000:.0f} us (paper: 360 us at full scale)",
    paper="The reordering-timeout setting has a bounded effect on FCT "
          "(penalty of a few ms at worst).",
    points=[Point(bench_config("vertigo", "dctcp", **LOAD,
                               ordering_timeout_ns=tau),
                  {"tau_us": round(tau / 1000)}) for tau in TAUS],
    columns=["tau_us", "mean_fct_s", "p99_fct_s", "mean_qct_s",
             "retransmissions", "reordered"],
    claims=[
        Claim("the worst mean FCT of the sweep is within 2.5x of the best",
              lambda v: max(v.all("mean_fct_s"))
              < 2.5 * min(v.all("mean_fct_s"))),
        Claim("the shortest timeout retransmits at least half as much as "
              "the longest (shorter never *reduces* spurious "
              "retransmissions)",
              lambda v: v("retransmissions", tau_us=SHORTEST_US)
              >= 0.5 * v("retransmissions", tau_us=LONGEST_US)),
    ],
)]


def test_fig13_ordering_timeout(benchmark):
    run_figure(benchmark, *FIGURES)
