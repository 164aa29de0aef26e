"""Deflection vs. lossless fabric under paper-geometry incast.

The same degree-24 incast burst on the 320-server leaf-spine, absorbed
by **ECMP + DCQCN + PFC** (the RoCE-style lossless fabric) and by
**Vertigo + DCTCP** (the paper's system, lossy).  Both use the hybrid
fidelity engine with an explicit ``demote_shares`` threshold sized for
the fan-in (EXPERIMENTS.md), so the incast paths run at packet fidelity
while the quiet remainder of the fabric stays analytic.  Each runs
twice: the lossless datapath (class lanes, pause events, edge
backpressure) is deterministic, not just plausible.
"""

from figures import Claim, Figure, Point, run_figure

from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import run_digest
from repro.net.fidelity import FidelityConfig
from repro.net.pfc import PfcConfig
from repro.sim.units import MILLISECOND

#: Degree of the incast burst: past the bench default (12) so the
#: burst genuinely overwhelms the victim downlink and the PFC pause
#: loop engages through the fabric, not just at the edge.
INCAST_SCALE = 24
LOSSLESS, VERTIGO = ({"lossless": lossless, "run": 1}
                     for lossless in (True, False))


def _config(system: str, transport: str, lossless: bool) -> ExperimentConfig:
    config = ExperimentConfig.paper_profile(
        system=system, transport=transport, bg_load=0.05,
        incast_qps=500.0, incast_scale=INCAST_SCALE,
        incast_flow_bytes=40_000)
    config.seed = 11
    config.sim_time_ns = 30 * MILLISECOND
    # Fan-in 24 with overlapping queries converges past the default
    # demotion threshold; 8 shares pins the incast paths to packet
    # fidelity (where PFC lives) while the rest stays analytic.
    config.fidelity = FidelityConfig(mode="hybrid", demote_shares=8)
    if lossless:
        # XOFF well below the 300 KB port buffer so pauses engage while
        # DCQCN's ECN loop is still reacting; auto headroom (2 BDP +
        # 2 MTU) keeps the fabric lossless above it.
        config.pfc = PfcConfig(enabled=True, num_classes=2,
                               priority_map=(0, 1), xoff_bytes=20_000,
                               xon_bytes=10_000)
    return config


def _pauses(result):
    pfc = result.pfc or {}
    return {
        "lossless": result.pfc is not None,
        "n_hosts": result.config.topology.n_hosts,
        "wall_s": round(sum(result.profile.values()), 1),
        "drops": result.metrics.counters.total_drops,
        "pause_events": pfc.get("pause_events", 0),
        # Pause entries whose upstream is a switch, not a host NIC: the
        # congestion-spreading witnesses.  A leaf pausing a spine holds
        # *every* flow transiting that spine egress — victim ports far
        # from the incast destination — not just the burst.
        "fabric_pauses": sum(1 for entry in pfc.get("pauses", ())
                             if not str(entry[0]).startswith("h")),
        "pause_ms": pfc.get("pause_ns", 0) / 1e6,
        "headroom_drops": pfc.get("headroom_drops", 0),
        "analytic_residency_permille":
            result.fidelity["analytic_residency_permille"],
        "demotions": result.fidelity["demotions"],
        "digest": run_digest(result)[:16],
    }


FIGURES = [Figure(
    id="pfc_incast",
    title="degree-24 incast on the paper fabric: PFC lossless vs. Vertigo "
          "deflection (each run twice)",
    paper="Vertigo's implicit comparison point — the RoCE-style answer to "
          "burst loss is not to deflect but to forbid loss: per-priority "
          "PAUSE (PFC) plus rate-based DCQCN.  The paper argues deflection "
          "absorbs bursts in-network without the lossless fabric's side "
          "effects.",
    points=[Point(_config(system, transport, lossless), {"run": run})
            for system, transport, lossless in (("ecmp", "dcqcn", True),
                                                ("vertigo", "dctcp", False))
            for run in (1, 2)],
    row=_pauses,
    columns=["system", "transport", "lossless", "run", "n_hosts", "wall_s",
             "drops", "pause_events", "fabric_pauses", "pause_ms",
             "headroom_drops", "p99_qct_s", "mean_qct_s",
             "analytic_residency_permille", "demotions", "digest"],
    claims=[
        Claim("both fabrics are digest-stable across their two runs",
              lambda v: v.all("digest", run=1) == v.all("digest", run=2)),
        Claim("every run is the 320-host paper geometry",
              lambda v: set(v.all("n_hosts")) == {320}),
        Claim("every run stays dominantly analytic (> 500 permille)",
              lambda v: min(v.all("analytic_residency_permille")) > 500),
        Claim("every run demotes its incast paths to packets",
              lambda v: min(v.all("demotions")) > 0),
        # Lossless edge to edge — and not because it was idle.
        Claim("the lossless fabric drops nothing",
              lambda v: v("drops", **LOSSLESS) == 0),
        Claim("the lossless fabric's pause machinery engaged",
              lambda v: v("pause_events", **LOSSLESS) > 0),
        Claim("it paused switch-to-switch links off the incast path",
              lambda v: v("fabric_pauses", **LOSSLESS) > 0),
        Claim("it spent time paused", lambda v: v("pause_ms", **LOSSLESS) > 0),
        Claim("its headroom never overflowed",
              lambda v: v("headroom_drops", **LOSSLESS) == 0),
        Claim("Vertigo's p99 QCT on the same burst is below the lossless "
              "fabric's",
              lambda v: v("p99_qct_s", **VERTIGO) < v("p99_qct_s", **LOSSLESS)),
        Claim("Vertigo never pauses",
              lambda v: v("pause_events", **VERTIGO) == 0),
    ],
)]


def test_pfc_incast_lossless_vs_deflection(benchmark):
    run_figure(benchmark, *FIGURES)
