"""Figure 11: component analysis.  (a) disables deflection, scheduling
or ordering, one at a time, at a low and a high load point; (b) sweeps
the boosting factor off/2x/4x/8x under a heavy incast share, where
re-transmissions are frequent (the paper pairs it with its high load).
"""

from figures import Claim, Figure, Point, bench_config
from repro.forwarding.base import VertigoSwitchParams

LOADS = [(0.25, 0.10), (0.50, 0.35)]  # (bg, incast): 35% and 85% total

VARIANTS = [
    ("vertigo-full", {}),
    ("no-deflection", {"vertigo_switch":
                       VertigoSwitchParams(deflection=False)}),
    ("no-scheduling", {"vertigo_switch":
                       VertigoSwitchParams(scheduling=False)}),
    ("no-ordering", {"ordering": False}),
]

BOOSTS = [("no-boost", {"boosting": False}),
          ("x2", {"boost_factor": 2}),
          ("x4", {"boost_factor": 4}),
          ("x8", {"boost_factor": 8})]


def _worse_without(component, column, load):
    return Claim(f"removing {component} raises {column} at {load}% load",
                 lambda v: v(column, variant=f"no-{component}", load_pct=load)
                 > v(column, variant="vertigo-full", load_pct=load))


#: Fig. 11b's claims read the heavy (50% background) rows.
HEAVY = {"bg_pct": 50}


FIGURES = [
    Figure(
        id="fig11a",
        title="Vertigo component ablation",
        paper="Disabling deflection: 13x QCT at the lowest load (6x more "
              "loss). Disabling scheduling: up to 110% higher QCT at high "
              "load (random-deflection-like). Disabling ordering: minimal "
              "QCT impact but FCT/goodput suffer via shrunken windows.",
        points=[Point(bench_config("vertigo", "dctcp", bg_load=bg,
                                   incast_load=incast, **kwargs),
                      {"variant": name})
                for name, kwargs in VARIANTS for bg, incast in LOADS],
        columns=["variant", "load_pct", "mean_qct_s", "mean_fct_s",
                 "query_completion_pct", "goodput_gbps", "drop_pct",
                 "reordered"],
        claims=[
            _worse_without("deflection", "mean_qct_s", 35),
            _worse_without("deflection", "drop_pct", 35),
            _worse_without("scheduling", "mean_qct_s", 85),
            _worse_without("ordering", "reordered", 85),
        ]),
    Figure(
        id="fig11b",
        title="re-transmission boosting factor",
        paper="Boosting is essential (completion drops 65% without it); "
              "factors above 2x add little.",
        points=[Point(bench_config("vertigo", "dctcp", bg_load=bg,
                                   incast_load=0.35, **kwargs),
                      {"boost": name, "bg_pct": round(100 * bg)})
                for name, kwargs in BOOSTS for bg in (0.25, 0.50)],
        columns=["boost", "bg_pct", "query_completion_pct", "mean_qct_s",
                 "retransmissions"],
        claims=[
            Claim("at the heavy point 2x boosting completes over 10 points "
                  "more queries than no boosting",
                  lambda v: v("query_completion_pct", boost="x2", **HEAVY)
                  > v("query_completion_pct", boost="no-boost", **HEAVY)
                  + 10),
            Claim("4x completes within 15 points of 2x (paper: factors "
                  "above 2x add little)",
                  lambda v: abs(v("query_completion_pct", boost="x2", **HEAVY)
                                - v("query_completion_pct", boost="x4",
                                    **HEAVY)) < 15),
            # 8x is allowed to be worse than 2x: see EXPERIMENTS.md on
            # the 32-bit RFS wrapping after a few retries.
            Claim("8x completes no more than 15 points fewer queries than "
                  "no boosting",
                  lambda v: v("query_completion_pct", boost="x8", **HEAVY)
                  > v("query_completion_pct", boost="no-boost", **HEAVY)
                  - 15),
        ]),
]
