#!/usr/bin/env python3
"""Deflection-aware telemetry (paper §5 extension).

With deflection deployed, packet drops stop being a congestion signal —
that is the whole point of deflection.  The paper sketches the fix:
monitor link utilization and deflection activity instead.  This example
runs an incast-heavy Vertigo simulation with a packet-level trace and a
2 ms port sampler, then folds the trace into a classified congestion
timeline: each sampler tick is an interval, ``pkt.deflect`` and
``pkt.drop`` records count toward the first tick at or after them, and
an interval with any drop is ``persistent`` congestion, one with at
least :data:`MICROBURST_DEFLECTIONS` deflections and no drop a
``microburst``.

Usage::

    python examples/telemetry_monitoring.py
"""

import sys
from bisect import bisect_left
from dataclasses import replace
from typing import List, NamedTuple, Tuple

from repro import ExperimentConfig, run_experiment
from repro.sim.units import MILLISECOND, fmt_time
from repro.trace.config import TraceConfig

#: Deflections within one interval, with no drop, that classify it as a
#: microburst.
MICROBURST_DEFLECTIONS = 10


class CongestionEvent(NamedTuple):
    """A classified interval, stamped with the tick that closes it."""

    time_ns: int
    kind: str                 # "microburst" | "persistent"
    deflections: int          # over the interval
    drops: int                # over the interval
    hottest_port: Tuple[str, int]
    hottest_utilization: float


def port_utilizations(trace) -> List[float]:
    """The ``util`` of every ``sample.port`` record, oldest first."""
    return [record[6] for record in trace.samples
            if record[0] == "sample.port"]


def congestion_timeline(trace) -> List[CongestionEvent]:
    """Fold a packet-level trace with a port sampler into its classified
    intervals."""
    # The hottest port of each tick: the first with the greatest util.
    hottest = {}
    for kind, t, *fields in trace.samples:
        if kind == "sample.port":
            node, port, _qbytes, _qpkts, util = fields
            if t not in hottest or util > hottest[t][1]:
                hottest[t] = ((node, port), util)
    ticks = list(hottest)
    deflections = [0] * len(ticks)
    drops = [0] * len(ticks)
    for record in trace.events:
        if record[0] in ("pkt.deflect", "pkt.drop"):
            index = bisect_left(ticks, record[1])
            if index < len(ticks):
                tally = deflections if record[0] == "pkt.deflect" else drops
                tally[index] += 1
    events = []
    for t, deflected, dropped in zip(ticks, deflections, drops):
        if dropped:
            kind = "persistent"
        elif deflected >= MICROBURST_DEFLECTIONS:
            kind = "microburst"
        else:
            continue
        port, util = hottest[t]
        events.append(CongestionEvent(t, kind, deflected, dropped, port,
                                      util))
    return events


def main() -> None:
    config = replace(ExperimentConfig.bench_profile(
        system="vertigo",
        transport="dctcp",
        bg_load=0.30,
        incast_qps=250,
        incast_scale=12,
        sim_time_ns=60 * MILLISECOND,
    ), trace=TraceConfig(level="packet", sample_period_ns=2 * MILLISECOND))
    print("running vertigo with a packet trace sampled every 2 ms ...")
    result = run_experiment(config)
    trace = result.trace
    if trace.dropped_events or trace.dropped_samples:
        # A fold over a truncated ring would undercount.
        sys.exit(f"trace ring overflowed: {trace.dropped_events} events, "
                 f"{trace.dropped_samples} samples dropped")
    utilizations = port_utilizations(trace)
    events = congestion_timeline(trace)
    microbursts = sum(1 for e in events if e.kind == "microburst")
    persistent = len(events) - microbursts
    counters = result.metrics.counters

    print(f"\nnetwork mean utilization: "
          f"{sum(utilizations) / len(utilizations):.1%}")
    print(f"deflections: {counters.deflections}, "
          f"drops: {counters.total_drops}")
    print(f"classified intervals: {microbursts} microburst, "
          f"{persistent} persistent congestion\n")

    print("congestion timeline:")
    for event in events[:20]:
        switch, port = event.hottest_port
        print(f"  t={fmt_time(event.time_ns):>10}  {event.kind:<11}"
              f" deflections={event.deflections:<5} drops={event.drops:<4}"
              f" hottest={switch}:{port}"
              f" ({event.hottest_utilization:.0%} util)")
    if len(events) > 20:
        print(f"  ... {len(events) - 20} more")

    print("\nNote: a drop-only monitor would report "
          f"{counters.total_drops} events and miss the "
          f"{microbursts} absorbed microbursts entirely — "
          "the observability gap §5 of the paper describes.")


if __name__ == "__main__":
    main()
