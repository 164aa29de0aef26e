"""The six workloads: named traffic distributions plus a seed.

Each workload is a closed-loop batch job — one run at a time per
process — whose *simulated* traffic (Poisson background, incast queries)
is open-loop and part of the input.  ``--seed`` is the only source of
randomness: sub-seed ``j`` of seed ``s`` is ``ExperimentConfig.seed =
1000*s + j``.  The timed runs rotate through ``subseeds`` independent
draws of the workload's distribution, because at horizons this short
one draw's wall time varies ~11% (IQR) from seed to seed and five draws'
sum ~4%.

``repro`` is imported inside the functions, never at module import: the
set-up probe times that import.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Sequence

MS = 1_000_000

#: Reference operating point shared by the bench-profile workloads
#: (BENCH_perf.json's reference experiment).
_BENCH_TRAFFIC = dict(bg_load=0.5, incast_load=0.25, incast_scale=12)

#: Quick mode divides every horizon by this.
QUICK_DIVISOR = 5

SWEEP_SYSTEMS = ("ecmp", "drill", "dibs", "vertigo")
SWEEP_SEEDS = 12
SWEEP_JOBS = 2


def _bench(system: str, transport: str, seed: int, sim_ns: int, **extra):
    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig.bench_profile(
        system=system, transport=transport, sim_time_ns=sim_ns, seed=seed,
        **_BENCH_TRAFFIC)
    return dataclasses.replace(config, **extra) if extra else config


def _incast_vertigo(seed: int, sim_ns: int) -> list:
    return [_bench("vertigo", "dctcp", seed, sim_ns)]


def _incast_ecmp(seed: int, sim_ns: int) -> list:
    return [_bench("ecmp", "dctcp", seed, sim_ns)]


def _lossless_pfc(seed: int, sim_ns: int) -> list:
    from repro.net.pfc import PfcConfig

    return [_bench("ecmp", "dcqcn", seed, sim_ns,
                   pfc=PfcConfig(enabled=True, num_classes=2,
                                 priority_map=(0, 1)))]


def _traced_packet(seed: int, sim_ns: int) -> list:
    from repro.trace.tracer import TraceConfig

    return [_bench("vertigo", "dctcp", seed, sim_ns,
                   trace=TraceConfig(level="packet",
                                     sample_period_ns=100_000))]


def _paperscale_hybrid(seed: int, sim_ns: int) -> list:
    # benchmarks/test_paper_scale.py's configuration.
    from repro.experiments.config import ExperimentConfig
    from repro.net.fidelity import FidelityConfig

    config = ExperimentConfig.paper_profile(
        system="vertigo", transport="dctcp", bg_load=0.1,
        incast_qps=2000.0, incast_scale=12, incast_flow_bytes=40_000)
    return [dataclasses.replace(
        config, sim_time_ns=sim_ns, seed=seed,
        fidelity=FidelityConfig(mode="hybrid", demote_shares=64))]


def _sweep_dispatch(seed: int, sim_ns: int) -> list:
    from repro.experiments.config import ExperimentConfig

    return [ExperimentConfig.bench_profile(
                system=system, transport="dctcp", sim_time_ns=sim_ns,
                seed=seed + offset, **_BENCH_TRAFFIC)
            for system in SWEEP_SYSTEMS for offset in range(SWEEP_SEEDS)]


# -- invariants (each returns the list of broken ones) ----------------------

def _common(result) -> List[str]:
    broken = []
    if result.engine.now < result.config.sim_time_ns:
        broken.append("engine clock stopped short of the horizon")
    if not result.metrics.flows:
        broken.append("no flows recorded")
    return broken


def _deflects(result) -> List[str]:
    if result.metrics.counters.deflections <= 0:
        return ["vertigo run without a single deflection"]
    return []


def _check_vertigo(results) -> List[str]:
    return _common(results[0]) + _deflects(results[0])


def _check_ecmp(results) -> List[str]:
    broken = _common(results[0])
    if results[0].metrics.counters.deflections != 0:
        broken.append("ecmp run deflected packets")
    return broken


def _check_pfc(results) -> List[str]:
    result = results[0]
    broken = _common(result)
    if result.metrics.counters.total_drops != 0:
        broken.append(f"lossless fabric dropped "
                      f"{result.metrics.counters.total_drops} packets")
    if not result.pfc or result.pfc["pause_events"] <= 0:
        broken.append("no PFC pause events")
    return broken


def _check_traced(results) -> List[str]:
    result = results[0]
    broken = _common(result) + _deflects(result)
    if result.trace is None:
        broken.append("traced run carries no trace")
    elif result.trace.dropped_events != 0:
        broken.append(f"trace ring buffer dropped "
                      f"{result.trace.dropped_events} events")
    return broken


def _check_hybrid(results) -> List[str]:
    result = results[0]
    broken = _common(result)
    if result.config.topology.n_hosts != 320:
        broken.append("not the 320-host paper fabric")
    residency = (result.fidelity or {}).get(
        "analytic_residency_permille", 0)
    if residency < 900:
        broken.append(f"analytic residency {residency} permille < 900")
    return broken


def _check_sweep(results) -> List[str]:
    # A point is a few simulated ms: "flows were recorded" is asked of
    # the sweep as a whole, the horizon of every point.
    broken = []
    for index, result in enumerate(results):
        if result is None:
            broken.append(f"sweep point {index} produced no result")
        elif result.engine.now < result.config.sim_time_ns:
            broken.append(f"point {index}: engine clock stopped short of "
                          f"the horizon")
    if not any(result is not None and result.metrics.flows
               for result in results):
        broken.append("no flows recorded anywhere in the sweep")
    return broken


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Simulated ms per experiment in the end-to-end runs / spans run.
    sim_ms: float
    spans_ms: float
    #: Independent draws (sub-seeds) the timed runs rotate through.
    subseeds: int
    make: Callable[[int, int], list]
    check: Callable[[Sequence], List[str]]
    #: True when one run fans out to a worker pool.
    pooled: bool = False
    #: Outside-timed metric groups measured on this workload's input
    #: ("checkpoint", "runtime"); see measure.layers.
    extras: tuple = ()

    def configs(self, seed: int, subseed: int = 0, *, spans: bool = False,
                quick: bool = False) -> list:
        """The experiment(s) of one run, as ``ExperimentConfig`` objects."""
        sim_ms = self.spans_ms if spans else self.sim_ms
        if quick:
            sim_ms = sim_ms / QUICK_DIVISOR
        return self.make(1000 * seed + subseed, round(sim_ms * MS))

    def execute(self, configs: list) -> list:
        """The timed region: configs in -> results with summary rows out."""
        if not self.pooled:
            return self.execute_in_process(configs)
        from repro.runtime import SupervisorPolicy, run_supervised

        report = run_supervised(configs, jobs=SWEEP_JOBS,
                                policy=SupervisorPolicy())
        report.rows()
        return [outcome.result if outcome.ok else None
                for outcome in report.outcomes]

    def execute_in_process(self, configs: list) -> list:
        """``run_experiment`` + ``report().row()`` per config, on this
        process alone: results keep their live network (spans run, sweep
        cross-check)."""
        from repro.experiments.parallel import run_many

        results = run_many(configs, jobs=1)
        for result in results:
            result.report().row()
        return results


WORKLOADS = (
    Workload(
        "incast-vertigo",
        "the paper's system at BENCH_perf's reference point: every "
        "packet-path layer incl. core.* and deflection works",
        sim_ms=60, spans_ms=30, subseeds=5,
        make=_incast_vertigo, check=_check_vertigo, extras=("checkpoint",)),
    Workload(
        "incast-ecmp",
        "same traffic through FIFO DropTail, tail drops and RTO recovery; "
        "bypasses core.* and deflection, so gains there must show no "
        "change here",
        sim_ms=60, spans_ms=30, subseeds=5,
        make=_incast_ecmp, check=_check_ecmp),
    Workload(
        "lossless-pfc",
        "same traffic on ecmp+dcqcn with 2-class PFC: lane queues, ingress "
        "gates, NIC back-pressure and the cancellable Event path",
        sim_ms=60, spans_ms=30, subseeds=5,
        make=_lossless_pfc, check=_check_pfc),
    Workload(
        "traced-packet",
        "incast-vertigo with packet-level tracing and the 100us sampler: "
        "the only workload where repro.trace works",
        sim_ms=40, spans_ms=30, subseeds=5,
        make=_traced_packet, check=_check_traced),
    Workload(
        "paperscale-hybrid",
        "320-server paper fabric under hybrid fidelity: packet path idle, "
        "per-flow set-up, analytic rounds, record keeping and memory",
        sim_ms=100, spans_ms=60, subseeds=5,
        make=_paperscale_hybrid, check=_check_hybrid),
    Workload(
        "sweep-dispatch",
        "48 short points (4 systems x 12 seeds) through "
        "run_supervised(jobs=2): pool, pickling, worker start and build "
        "are a large share",
        sim_ms=3, spans_ms=3, subseeds=3,
        make=_sweep_dispatch, check=_check_sweep, pooled=True,
        extras=("runtime",)),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
