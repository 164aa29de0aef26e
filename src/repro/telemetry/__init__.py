"""Deflection-aware network telemetry (paper §5, sketched future work).

With packet deflection deployed, drop counters no longer reveal temporal
congestion, so §5 proposes watching link utilization and deflections
instead.  That congestion timeline is a fold over a packet-level trace
with a port sampler (``examples/telemetry_monitoring.py``): no run
attaches a live monitor.  The package holds no module; it stays because
the benchmark ledger's span pass imports ``repro.telemetry``.
"""
