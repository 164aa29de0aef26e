"""Deflection-aware network telemetry (paper §5, sketched future work).

With packet deflection deployed, drop counters no longer reveal temporal
congestion — deflection absorbs microbursts precisely so that nothing is
dropped.  The paper proposes tracking *link utilization* and *deflections
per packet* instead.  :class:`TelemetryMonitor` implements that sketch:
periodic sampling of port utilization, queue occupancy, and the
network-wide deflection rate, plus a simple event detector that
classifies intervals as micro-bursty (deflections spike, drops do not)
or persistently congested (drops occur).  It is the congestion monitor
and nothing else: fault applications are the injector's own log
(``FaultInjector.applied``) and the PFC deadlock verdict is the PFC
controller's (``PfcController.deadlocked``).
"""

from repro.telemetry.monitor import (
    CongestionEvent,
    PortSample,
    TelemetryMonitor,
)

__all__ = ["TelemetryMonitor", "PortSample", "CongestionEvent"]
