"""Extension — burst tolerance under dataplane faults (repro.faults):

- **ext4 — spine failure:** every forwarding policy rides through a
  mid-run spine-cable outage (down at 30 ms, repaired at 70 ms of a
  120 ms run).  The healthy half of the sweep is the control; the
  delta in QCT/FCT is the cost of losing half the core for a third of
  the run.  Expected: ECMP-family policies pay the full rerouted-path
  congestion; Vertigo's deflections absorb the transient much like a
  microburst, so its QCT degrades the least.
- **ext5 — flaky cable:** a spine cable degrades (1% corruption loss)
  instead of failing cleanly — the paper's drop-vs-deflect argument
  replayed against wire loss that no buffer scheme can prevent.
"""

from common import bench_config, emit, once, sweep_rows

from repro.experiments.config import ALL_SYSTEMS
from repro.faults import parse_fault
from repro.sim.units import MILLISECOND

SIM_TIME_NS = 120 * MILLISECOND
#: Outage window as fractions of the run: down at 1/4, repaired at 7/12.
FAILURE = (f"link:leaf0-spine1:down@{SIM_TIME_NS // 4}ns,"
           f"up@{SIM_TIME_NS * 7 // 12}ns")
FLAKY = (f"link:leaf0-spine1:loss=0.01@{SIM_TIME_NS // 4}ns,"
         f"loss=0@{SIM_TIME_NS * 7 // 12}ns")

SYSTEMS = list(ALL_SYSTEMS)

COLUMNS = ["series", "system", "mean_qct_s", "p99_qct_s", "mean_fct_s",
           "query_completion_pct", "drop_pct", "deflections"]


def _configs(fault_directive):
    """(healthy, faulted) config pair per system, same seed/workload."""
    configs, extras = [], []
    for system in SYSTEMS:
        for series, faults in (("healthy", ()),
                               ("faulted", parse_fault(fault_directive))):
            config = bench_config(system, "dctcp", bg_load=0.15,
                                  incast_load=0.25,
                                  sim_time_ns=SIM_TIME_NS,
                                  faults=faults)
            configs.append(config)
            extras.append({"series": series})
    return configs, extras


def test_ext4_spine_failure(benchmark):
    configs, extras = _configs(FAILURE)

    rows = once(benchmark, lambda: sweep_rows(configs, extras))
    emit("ext4", "mid-run spine failure: QCT/FCT per policy "
         f"({FAILURE})", rows, COLUMNS,
         notes="outage removes half the core for ~1/3 of the run")

    by = {(r["series"], r["system"]): r for r in rows}
    for system in SYSTEMS:
        # The outage must hurt, not hang: traffic still completes.
        assert by[("faulted", system)]["query_completion_pct"] > 0
        assert by[("healthy", system)]["query_completion_pct"] > 0
    # Vertigo's deflections absorb the transient better than ECMP
    # absorbs it with drops.
    assert by[("faulted", "vertigo")]["mean_qct_s"] \
        <= by[("faulted", "ecmp")]["mean_qct_s"]


def test_ext5_flaky_cable(benchmark):
    configs, extras = _configs(FLAKY)

    rows = once(benchmark, lambda: sweep_rows(configs, extras))
    emit("ext5", "flaky spine cable (1% corruption loss window)",
         rows, COLUMNS)

    by = {(r["series"], r["system"]): r for r in rows}
    for system in SYSTEMS:
        assert by[("faulted", system)]["query_completion_pct"] > 0
