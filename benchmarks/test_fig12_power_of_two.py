"""Figure 12: random vs power-of-two choices for forwarding (FW) and
deflection (DEF), on leaf-spine and fat-tree."""

import pytest

from figures import (Claim, Figure, Point, bench_config,
                     incast_loads_for_totals, run_figure)
from repro.forwarding.vertigo import VertigoSwitchParams
from repro.net.topology import FatTree

GRID = [(f"{fw}FW-{deflect}DEF",
         VertigoSwitchParams(fw_choices=fw, def_choices=deflect))
        for fw in (1, 2) for deflect in (1, 2)]
BG = 0.50


def _figure(topo_name, totals, **topology):
    low = round(100 * totals[0])
    return Figure(
        id=f"fig12_{topo_name}",
        title=f"random vs power-of-two FW/DEF ({topo_name})",
        paper="Random deflection targets raise drop probability by up to "
              "47% vs power-of-two; the gap fades as load grows.",
        points=[Point(bench_config("vertigo", "dctcp", bg_load=BG,
                                   incast_load=incast,
                                   vertigo_switch=params, **topology),
                      {"variant": name})
                for name, params in GRID
                for incast in incast_loads_for_totals(BG, totals)],
        columns=["variant", "load_pct", "mean_qct_s", "drop_pct",
                 "query_completion_pct", "deflections"],
        claims=[
            Claim(f"power-of-two deflection drops at most 1.2x what random "
                  f"deflection drops at {low}% load (like-for-like 2FW)",
                  lambda v: v("drop_pct", variant="2FW-2DEF", load_pct=low)
                  <= 1.2 * v("drop_pct", variant="2FW-1DEF", load_pct=low)),
        ],
    )


FIGURES = [
    _figure("leafspine", [0.60, 0.75, 0.90]),
    _figure("fattree", [0.60, 0.85], topology=FatTree(4), incast_scale=6),
]


@pytest.mark.parametrize("figure", FIGURES,
                         ids=["leafspine-totals0", "fattree-totals1"])
def test_fig12_choice_grid(benchmark, figure):
    run_figure(benchmark, figure)
