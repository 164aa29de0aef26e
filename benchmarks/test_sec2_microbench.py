"""§2 micro-observations that motivate the design, at ~35% load: what
random deflection does to reordering, loss, path length and mice
(<100 KB in the paper: <24 KB scaled) FCT, and what choosing the
less-loaded of two sampled queues ("power of two choices") changes."""

from figures import Claim, Figure, Point, bench_config, run_figure
from repro.forwarding.base import VertigoSwitchParams
from repro.metrics.collector import completion_times_s
from repro.metrics.stats import mean

LOAD = dict(bg_load=0.20, incast_load=0.15)


def _mice(result):
    metrics = result.metrics
    mice = [flow for flow in metrics.population(metrics.flows)
            if not flow.is_incast and flow.size <= 24_000]
    return {"mice_mean_fct_ms": 1000 * mean(completion_times_s(mice))}


FIGURES = [Figure(
    id="sec2",
    title="low-load deflection pathologies (35% load)",
    paper="At ~35% load: random deflection raises reordering ~10x and loss "
          "+57% vs ECMP; power-of-two deflection cuts loss ~54.5%; paths "
          "lengthen ~20%; mice FCT +40%.",
    points=[
        Point(bench_config("ecmp", "dctcp", **LOAD), {"series": "ecmp"}),
        Point(bench_config("dibs", "dctcp", **LOAD),
              {"series": "random-deflection"}),
        # Deflection with power-of-two target choice, no SRPT and no
        # host shims: isolates the "where to deflect" question.
        Point(bench_config(
            "vertigo", "dctcp", ordering=False,
            vertigo_switch=VertigoSwitchParams(fw_choices=1, def_choices=2,
                                               scheduling=False), **LOAD),
              {"series": "po2-deflection"}),
    ],
    row=_mice,
    columns=["series", "reordered", "drop_pct", "mean_hops",
             "mice_mean_fct_ms", "mean_fct_s"],
    claims=[
        Claim("random deflection more than doubles transport-visible "
              "reordering over ECMP",
              lambda v: v("reordered", series="random-deflection")
              > 2 * max(1, v("reordered", series="ecmp"))),
        Claim("random deflection lengthens paths by over 10%",
              lambda v: v("mean_hops", series="random-deflection")
              > 1.1 * v("mean_hops", series="ecmp")),
        Claim("power-of-two deflection drops no more than random "
              "deflection (1.5x + 0.05 points allowance)",
              lambda v: v("drop_pct", series="po2-deflection")
              <= 1.5 * v("drop_pct", series="random-deflection") + 0.05),
    ],
)]


def test_sec2_low_load_observations(benchmark):
    run_figure(benchmark, *FIGURES)
