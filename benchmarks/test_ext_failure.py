"""Extension — burst tolerance under dataplane faults (repro.faults).
Every forwarding policy runs healthy (the control) and faulted; the
delta in QCT/FCT is the cost of the fault."""

from figures import (BENCH_SIM_TIME_NS, Claim, Figure, Point, bench_config,
                     run_figure)
from repro.experiments.config import ALL_SYSTEMS
from repro.faults import parse_fault

#: Outage window as fractions of the run: down at 1/4, repaired at 7/12.
WINDOW = (BENCH_SIM_TIME_NS // 4, BENCH_SIM_TIME_NS * 7 // 12)
FAILURE = "link:leaf0-spine1:down@{}ns,up@{}ns".format(*WINDOW)
FLAKY = "link:leaf0-spine1:loss=0.01@{}ns,loss=0@{}ns".format(*WINDOW)


def _figure(figure_id, title, paper, directive, claims):
    """A (healthy, faulted) point pair per system, same seed/workload."""
    return Figure(
        id=figure_id, title=title,
        paper=f"No paper counterpart (its fabric is healthy): {paper}",
        points=[Point(bench_config(system, "dctcp", bg_load=0.15,
                                   incast_load=0.25, faults=faults),
                      {"series": series})
                for system in ALL_SYSTEMS
                for series, faults in (("healthy", ()),
                                       ("faulted", parse_fault(directive)))],
        columns=["series", "system", "mean_qct_s", "p99_qct_s", "mean_fct_s",
                 "query_completion_pct", "drop_pct", "deflections"],
        claims=claims)


def _completes(series):
    """The fault must hurt, not hang: traffic still completes."""
    return [Claim(f"{series} {system} still completes queries",
                  lambda v, system=system:
                  v("query_completion_pct", series=series, system=system) > 0)
            for system in ALL_SYSTEMS]


FIGURES = [
    _figure("ext4", f"mid-run spine failure: QCT/FCT per policy ({FAILURE})",
            "a spine cable is down from 30 to 70 ms of the 120 ms run, "
            "half the core gone for a third of it.", FAILURE, [
                *_completes("faulted"), *_completes("healthy"),
                Claim("Vertigo's deflections absorb the outage at least as "
                      "well as ECMP's drops: faulted mean QCT no higher",
                      lambda v:
                      v("mean_qct_s", series="faulted", system="vertigo")
                      <= v("mean_qct_s", series="faulted", system="ecmp")),
            ]),
    _figure("ext5", "flaky spine cable (1% corruption loss window)",
            "the cable corrupts 1% of packets over the same window instead "
            "of failing cleanly: wire loss no buffer scheme can prevent.",
            FLAKY, _completes("faulted")),
]


def test_ext4_spine_failure(benchmark):
    run_figure(benchmark, FIGURES[0])


def test_ext5_flaky_cable(benchmark):
    run_figure(benchmark, FIGURES[1])
