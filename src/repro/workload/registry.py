"""Workload registry: resolve :class:`WorkloadSpec` entries to running
generators.

The experiment runner hands :func:`build_workload` a
:class:`~repro.experiments.config.WorkloadConfig` and a
:class:`WorkloadContext`; each spec is resolved through
:data:`GENERATOR_BUILDERS` (keyed by spec kind), built, and started, in
spec order.  An inactive spec (``WorkloadSpec.active``: zero load, no
rate) is skipped, leaving no trace in the run — the exact behavior of
the pre-spec runner, keeping legacy run digests byte-identical.  Each
builder turns a load into an arrival rate with the one rule,
:func:`~repro.workload.arrivals.arrivals_per_s`, passing what one
arrival carries.

RNG stream discipline: the first *active* spec of each kind owns the
kind-named stream (``"background"``, ``"incast"``, ``"coflow"``,
``"duty_cycle"`` — the first two being the streams the pre-spec runner
used, another digest-compatibility requirement); the *n*-th active spec
of a kind owns ``"<kind>:<n>"``.  An inactive spec draws nothing and
numbers nothing, so adding one changes no stream.

A builder imports its generator's module when it builds one, so a run
loads only the generators its specs name; the duty-cycle generator,
which is also the background one, lives with the arrival process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workload.arrivals import DutyCycleTraffic, arrivals_per_s
from repro.workload.distributions import get_distribution
from repro.workload.spec import (
    BackgroundSpec,
    CoflowSpec,
    DutyCycleSpec,
    IncastSpec,
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
    from repro.workload.incast import IncastApp

    qps = spec.qps if spec.qps is not None else arrivals_per_s(
        spec.load, ctx.n_hosts, ctx.host_rate_bps,
        spec.scale * spec.flow_bytes)
    return IncastApp(ctx.engine, ctx.open_flow, ctx.metrics, ctx.n_hosts,
                     qps, spec.scale, spec.flow_bytes, rng,
                     until_ns=ctx.until_ns)


def _build_coflow(spec: CoflowSpec, ctx: WorkloadContext, rng):
    from repro.workload.coflow import CoflowApp

    cps = spec.cps if spec.cps is not None else arrivals_per_s(
        spec.load, ctx.n_hosts, ctx.host_rate_bps,
        spec.flows_per_coflow * spec.flow_bytes)
    return CoflowApp(ctx.engine, ctx.open_flow, ctx.metrics, ctx.n_hosts,
                     cps, spec, rng, until_ns=ctx.until_ns)


def _build_duty_cycle(spec: DutyCycleSpec, ctx: WorkloadContext, rng):
    sizes = get_distribution(spec.distribution, truncate_at=spec.size_cap)
    return DutyCycleTraffic(ctx.engine, ctx.open_flow, ctx.n_hosts,
                            ctx.host_rate_bps, spec.load, spec.duty,
                            spec.period_ns, sizes, rng,
                            until_ns=ctx.until_ns)


#: kind -> builder(spec, ctx, rng_stream) -> generator, for an active spec.
GENERATOR_BUILDERS: Dict[str, Callable] = {
    "background": _build_background,
    "incast": _build_incast,
    "coflow": _build_coflow,
    "duty_cycle": _build_duty_cycle,
}


def build_workload(workload, ctx: WorkloadContext) -> List[object]:
    """Build and start every active generator of ``workload.specs``.

    Returns the started generators, in spec order.  What they start is
    counted once, by the metrics collector that records it.
    """
    generators: List[object] = []
    counts: Dict[str, int] = {}
    for spec in workload.specs:  # WorkloadConfig checked their type
        builder = GENERATOR_BUILDERS.get(spec.kind)
        if builder is None:
            raise ValueError(f"no generator registered for workload "
                             f"kind {spec.kind!r}")
        if not spec.active:
            continue
        n = counts[spec.kind] = counts.get(spec.kind, 0) + 1
        stream_name = spec.kind if n == 1 else f"{spec.kind}:{n}"
        generator = builder(spec, ctx, ctx.rng.stream(stream_name))
        generator.start()
        generators.append(generator)
    return generators
