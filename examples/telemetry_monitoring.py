#!/usr/bin/env python3
"""Deflection-aware telemetry (paper §5 extension).

With deflection deployed, packet drops stop being a congestion signal —
that is the whole point of deflection.  The paper sketches the fix:
monitor link utilization and deflection activity instead.  This example
runs an incast-heavy Vertigo simulation with the telemetry monitor
attached and prints the classified congestion timeline.

Usage::

    python examples/telemetry_monitoring.py
"""

from dataclasses import replace

from repro import ExperimentConfig, run_experiment
from repro.sim.units import MILLISECOND, fmt_time


def main() -> None:
    config = replace(ExperimentConfig.bench_profile(
        system="vertigo",
        transport="dctcp",
        bg_load=0.30,
        incast_qps=250,
        incast_scale=12,
        sim_time_ns=60 * MILLISECOND,
    ), telemetry_interval_ns=2 * MILLISECOND)
    print("running vertigo with telemetry sampling every 2 ms ...")
    result = run_experiment(config)
    monitor = result.telemetry
    counters = result.metrics.counters

    print(f"\nnetwork mean utilization: {monitor.mean_utilization():.1%}")
    print(f"deflections: {counters.deflections}, "
          f"drops: {counters.total_drops}")
    print(f"classified intervals: {monitor.microburst_count()} microburst, "
          f"{monitor.persistent_count()} persistent congestion\n")

    print("congestion timeline:")
    for event in monitor.events[:20]:
        switch, port = event.hottest_port
        print(f"  t={fmt_time(event.time_ns):>10}  {event.kind:<11}"
              f" deflections={event.deflections:<5} drops={event.drops:<4}"
              f" hottest={switch}:{port}"
              f" ({event.hottest_utilization:.0%} util)")
    if len(monitor.events) > 20:
        print(f"  ... {len(monitor.events) - 20} more")

    print("\nNote: a drop-only monitor would report "
          f"{counters.total_drops} events and miss the "
          f"{monitor.microburst_count()} absorbed microbursts entirely — "
          "the observability gap §5 of the paper describes.")


if __name__ == "__main__":
    main()
