"""Workload registry: resolve :class:`WorkloadSpec` entries to running
generators.

The experiment runner hands :func:`build_workload` a
:class:`~repro.experiments.config.WorkloadConfig` and a
:class:`WorkloadContext`; each spec is resolved through
:data:`GENERATOR_BUILDERS` (keyed by spec kind), built, and started, in
spec order.  Builders return ``None`` for inactive specs (zero load, no
rate) so they leave no trace in the run — the exact behavior of the
pre-spec runner, keeping legacy run digests byte-identical.

RNG stream discipline: the first spec of each kind owns the kind-named
stream (``"background"``, ``"incast"``, ``"coflow"``, ``"duty_cycle"``
— the first two being the streams the pre-spec runner used, another
digest-compatibility requirement); the *n*-th duplicate of a kind owns
``"<kind>:<n>"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workload.coflow import CoflowApp, cps_for_load
from repro.workload.distributions import get_distribution
from repro.workload.dutycycle import DutyCycleTraffic
from repro.workload.incast import IncastApp, qps_for_load
from repro.workload.spec import (
    BackgroundSpec,
    CoflowSpec,
    DutyCycleSpec,
    IncastSpec,
    WorkloadSpec,
)

#: Named RNG streams this module owns (checked by lint rule VR110).
#: Plain names are the first spec of each kind; the ``<kind>:`` prefix
#: families cover duplicate specs.
RNG_STREAMS = ("background", "incast", "coflow", "duty_cycle",
               "background:", "incast:", "coflow:", "duty_cycle:")


@dataclass
class WorkloadContext:
    """Everything a generator builder needs from the wired simulation."""

    engine: Engine
    open_flow: Callable[..., None]
    metrics: MetricsCollector
    n_hosts: int
    host_rate_bps: int
    rng: RngRegistry
    until_ns: int


def _build_background(spec: BackgroundSpec, ctx: WorkloadContext, rng):
    # Plain Poisson background is the duty-cycle generator always on,
    # draw for draw (on-window == period, whatever the period).
    return _build_duty_cycle(
        DutyCycleSpec(load=spec.load, duty=1.0,
                      distribution=spec.distribution,
                      size_cap=spec.size_cap), ctx, rng)


def _build_incast(spec: IncastSpec, ctx: WorkloadContext, rng):
    qps = spec.qps
    if qps is None and spec.load:
        qps = qps_for_load(spec.load, ctx.n_hosts, ctx.host_rate_bps,
                           spec.scale, spec.flow_bytes)
    if not qps:
        return None
    return IncastApp(ctx.engine, ctx.open_flow, ctx.metrics, ctx.n_hosts,
                     qps, spec.scale, spec.flow_bytes, rng,
                     until_ns=ctx.until_ns)


def _build_coflow(spec: CoflowSpec, ctx: WorkloadContext, rng):
    cps = spec.cps
    if cps is None and spec.load:
        cps = cps_for_load(spec.load, ctx.n_hosts, ctx.host_rate_bps,
                           spec.flows_per_coflow, spec.flow_bytes)
    if not cps:
        return None
    return CoflowApp(ctx.engine, ctx.open_flow, ctx.metrics, ctx.n_hosts,
                     cps, spec.width, spec.stages, spec.pattern,
                     spec.flow_bytes, rng, until_ns=ctx.until_ns)


def _build_duty_cycle(spec: DutyCycleSpec, ctx: WorkloadContext, rng):
    if spec.load <= 0:
        return None
    sizes = get_distribution(spec.distribution, truncate_at=spec.size_cap)
    return DutyCycleTraffic(ctx.engine, ctx.open_flow, ctx.n_hosts,
                            ctx.host_rate_bps, spec.load, spec.duty,
                            spec.period_ns, sizes, rng,
                            until_ns=ctx.until_ns)


#: kind -> builder(spec, ctx, rng_stream) -> generator or None.
GENERATOR_BUILDERS: Dict[str, Callable] = {
    "background": _build_background,
    "incast": _build_incast,
    "coflow": _build_coflow,
    "duty_cycle": _build_duty_cycle,
}


def build_workload(workload, ctx: WorkloadContext) -> List[object]:
    """Build and start every active generator of ``workload.specs``.

    Returns the started generators, in spec order.  The runner
    aggregates their ``flows_generated`` / ``queries_issued`` /
    ``coflows_launched`` counters into the run result.
    """
    generators: List[object] = []
    counts: Dict[str, int] = {}
    for spec in workload.specs:
        if not isinstance(spec, WorkloadSpec):
            raise TypeError(f"workload specs must be WorkloadSpec "
                            f"instances, got {spec!r}")
        builder = GENERATOR_BUILDERS.get(spec.kind)
        if builder is None:
            raise ValueError(f"no generator registered for workload "
                             f"kind {spec.kind!r}")
        n = counts.get(spec.kind, 0) + 1
        counts[spec.kind] = n
        stream_name = spec.kind if n == 1 else f"{spec.kind}:{n}"
        generator = builder(spec, ctx, ctx.rng.stream(stream_name))
        if generator is not None:
            generator.start()
            generators.append(generator)
    return generators
