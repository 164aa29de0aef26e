"""Periodic sampling and congestion-event classification.

The monitor schedules itself on the simulation engine every
``interval_ns`` and records, per switch port, the link utilization over
the interval and the instantaneous queue occupancy; network-wide it
tracks the deflection and drop deltas.  Intervals are classified:

- ``microburst`` — deflection activity spiked while drops stayed at
  (near) zero: the fabric absorbed a short overload in place, which a
  drop-based monitor would have missed entirely (§5's observation);
- ``persistent`` — packets were dropped: deflection capacity was
  exhausted, i.e. long-lasting, network-wide congestion.

The runner :meth:`~TelemetryMonitor.detach`-es the monitor when the run
ends, so the result carries the monitor itself, picklable, with its
observations and without the live engine or network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.builder import Network
from repro.sim.engine import Engine
from repro.trace.sampler import PortTick


@dataclass(frozen=True)
class PortSample:
    """One port's measurements over one sampling interval."""

    time_ns: int
    switch: str
    port: int
    utilization: float        # fraction of the interval the link was busy
    queue_bytes: int
    queue_fraction: float     # occupancy / capacity


@dataclass(frozen=True)
class CongestionEvent:
    """A classified interval."""

    time_ns: int
    kind: str                 # "microburst" | "persistent"
    deflections: int          # delta over the interval
    drops: int                # delta over the interval
    hottest_port: Tuple[str, int]
    hottest_utilization: float


class TelemetryMonitor(PortTick):
    """Samples a running :class:`~repro.net.builder.Network`."""

    #: Deflections within one interval, with no drop, that classify it
    #: as a microburst.
    MICROBURST_DEFLECTIONS = 10

    def __init__(self, engine: Engine, network: Network,
                 interval_ns: int = 1_000_000) -> None:
        super().__init__(engine, network, interval_ns)
        self.samples: List[PortSample] = []
        self.events: List[CongestionEvent] = []
        self._last_deflections = 0
        self._last_drops = 0

    def start(self) -> None:
        if self._ticks is None:
            counters = self.network.metrics.counters
            self._last_deflections = counters.deflections
            self._last_drops = counters.total_drops
            super().start()

    def detach(self) -> None:
        """Stop sampling and let go of the live simulation (run end)."""
        self.stop()
        self.engine = self.network = None
        self._ports = []
        self._last_bytes = []

    def _on_tick(self) -> None:
        now = self.engine.now
        hottest: Optional[PortSample] = None
        for (name, index, _port, queue, _lanes), utilization \
                in zip(self._ports, self._utilizations()):
            sample = PortSample(
                time_ns=now, switch=name, port=index,
                utilization=utilization, queue_bytes=queue.bytes,
                # Dimensionless byte/byte ratio.
                queue_fraction=queue.bytes  # noqa: VR003
                / queue.capacity_bytes)
            self.samples.append(sample)
            if hottest is None or sample.utilization > hottest.utilization:
                hottest = sample
        self._classify(now, hottest)

    def _classify(self, now: int, hottest: Optional[PortSample]) -> None:
        counters = self.network.metrics.counters
        deflections = counters.deflections
        drops = counters.total_drops
        deflection_delta = deflections - self._last_deflections
        drop_delta = drops - self._last_drops
        self._last_deflections = deflections
        self._last_drops = drops
        kind: Optional[str] = None
        if drop_delta > 0:
            kind = "persistent"
        elif deflection_delta >= self.MICROBURST_DEFLECTIONS:
            kind = "microburst"
        if kind is not None and hottest is not None:
            self.events.append(CongestionEvent(
                time_ns=now, kind=kind, deflections=deflection_delta,
                drops=drop_delta,
                hottest_port=(hottest.switch, hottest.port),
                hottest_utilization=hottest.utilization))

    # -- reporting ---------------------------------------------------------------

    def mean_utilization(self, switch: Optional[str] = None) -> float:
        """Average sampled utilization, optionally for one switch."""
        pool = [s.utilization for s in self.samples
                if switch is None or s.switch == switch]
        return sum(pool) / len(pool) if pool else 0.0

    def microburst_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "microburst")

    def persistent_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "persistent")

    def section(self) -> Dict[str, object]:
        """This monitor's slice of the unified ``RunReport`` schema."""
        return {
            "mean_utilization": self.mean_utilization(),
            "microbursts": self.microburst_count(),
            "persistent": self.persistent_count(),
            "samples": len(self.samples),
        }
