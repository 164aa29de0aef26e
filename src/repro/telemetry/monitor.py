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

Fault-injection events (:mod:`repro.faults`) land on the same timeline
as :class:`FaultEvent` records, so a congestion episode can be read
against the link failure that caused it (:meth:`TelemetryMonitor.timeline`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.metrics.collector import NetworkCounters
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


@dataclass(frozen=True)
class FaultEvent:
    """One applied fault-injection event on the congestion timeline."""

    time_ns: int
    kind: str                 # "link_down" | "link_up" | "link_rate" | ...
    link: Tuple[str, str]


@dataclass(frozen=True)
class DeadlockEvent:
    """A PFC pause cycle that persisted across consecutive ticks.

    With lossless (PFC) fabrics, a cyclic buffer dependency — switch A's
    ingress paused by B, B's by C, C's by A — stops every port on the
    cycle forever: no packet drains, so no XON ever fires.  The
    simulation itself cannot hang (the engine simply runs out the
    sim-time horizon), but without this record the run would *look* like
    an idle network.  The monitor reports the cycle instead.
    """

    time_ns: int
    cycle: Tuple[str, ...]    # switch names, in cycle order


class TelemetryReport:
    """Reporting surface shared by the live monitor and its snapshot.

    Implementations provide ``samples``, ``events`` and ``faults``
    lists; the derived statistics are defined once here so the monitor
    and :class:`TelemetrySummary` can never drift apart.
    """

    samples: List[PortSample]
    events: List[CongestionEvent]
    faults: List[FaultEvent]
    deadlocks: List[DeadlockEvent]

    def mean_utilization(self, switch: Optional[str] = None) -> float:
        """Average sampled utilization, optionally for one switch."""
        pool = [s.utilization for s in self.samples
                if switch is None or s.switch == switch]
        return sum(pool) / len(pool) if pool else 0.0

    def microburst_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "microburst")

    def persistent_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "persistent")

    def fault_count(self) -> int:
        return len(self.faults)

    def timeline(self) -> List[object]:
        """Congestion and fault events merged in time order."""
        merged: List[object] = [*self.events, *self.faults]
        merged.sort(key=lambda event: event.time_ns)
        return merged

    def section(self) -> Dict[str, object]:
        """This monitor's slice of the unified ``RunReport`` schema."""
        return {
            "mean_utilization": self.mean_utilization(),
            "microbursts": self.microburst_count(),
            "persistent": self.persistent_count(),
            "fault_events": self.fault_count(),
            "samples": len(self.samples),
            "pfc_deadlocks": [[event.time_ns, list(event.cycle)]
                              for event in self.deadlocks],
        }


@dataclass
class TelemetrySummary(TelemetryReport):
    """Picklable snapshot of a monitor's observations.

    Carries the recorded samples/events/faults and the same reporting
    surface as :class:`TelemetryMonitor` (via :class:`TelemetryReport`),
    without the live engine/network references, so telemetry survives
    transfer from sweep worker processes.
    """

    samples: List[PortSample] = field(default_factory=list)
    events: List[CongestionEvent] = field(default_factory=list)
    faults: List[FaultEvent] = field(default_factory=list)
    deadlocks: List[DeadlockEvent] = field(default_factory=list)


class TelemetryMonitor(TelemetryReport, PortTick):
    """Samples a running :class:`~repro.net.builder.Network`."""

    #: Consecutive ticks a pause cycle must persist before it is
    #: recorded as a deadlock (filters transient, self-resolving loops).
    DEADLOCK_PERSISTENCE_TICKS = 3

    def __init__(self, engine: Engine, network: Network,
                 interval_ns: int = 1_000_000, *,
                 microburst_deflection_threshold: int = 10,
                 pfc=None) -> None:
        super().__init__(engine, network, interval_ns)
        self.microburst_deflection_threshold = \
            microburst_deflection_threshold
        self.pfc = pfc
        self.samples: List[PortSample] = []
        self.events: List[CongestionEvent] = []
        self.faults: List[FaultEvent] = []
        self.deadlocks: List[DeadlockEvent] = []
        self._last_deflections = 0
        self._last_drops = 0
        # Pause cycles seen on the previous ticks, keyed by canonical
        # cycle tuple -> consecutive-tick count (see _check_deadlock).
        self._cycle_streaks: Dict[Tuple[str, ...], int] = {}
        self._reported_cycles: set = set()

    @property
    def counters(self) -> NetworkCounters:
        return self.network.metrics.counters

    def start(self) -> None:
        if self._pending is None:
            self._last_deflections = self.counters.deflections
            self._last_drops = self.counters.total_drops
            super().start()

    def record_fault(self, kind: str, link: Tuple[str, str]) -> None:
        """Record an applied fault-injection event (injector callback)."""
        self.faults.append(FaultEvent(time_ns=self.engine.now, kind=kind,
                                      link=link))

    def _on_tick(self, now: int) -> None:
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
        if self.pfc is not None:
            self._check_deadlock(now)

    def _classify(self, now: int, hottest: Optional[PortSample]) -> None:
        deflections = self.counters.deflections
        drops = self.counters.total_drops
        deflection_delta = deflections - self._last_deflections
        drop_delta = drops - self._last_drops
        self._last_deflections = deflections
        self._last_drops = drops
        kind: Optional[str] = None
        if drop_delta > 0:
            kind = "persistent"
        elif deflection_delta >= self.microburst_deflection_threshold:
            kind = "microburst"
        if kind is not None and hottest is not None:
            self.events.append(CongestionEvent(
                time_ns=now, kind=kind, deflections=deflection_delta,
                drops=drop_delta,
                hottest_port=(hottest.switch, hottest.port),
                hottest_utilization=hottest.utilization))

    def _check_deadlock(self, now: int) -> None:
        """Record PFC pause cycles that persist across consecutive ticks.

        A healthy PFC fabric pauses and resumes constantly; a pause
        *cycle* that is still the same cycle
        :data:`DEADLOCK_PERSISTENCE_TICKS` ticks in a row cannot resolve
        itself (nothing on the cycle can drain), so it is reported once
        as a :class:`DeadlockEvent`.  Cycle membership is recomputed
        from scratch every tick from the controller's currently-paused
        switch-to-switch edges.
        """
        cycles = _pause_cycles(self.pfc.paused_edges())
        streaks = self._cycle_streaks
        self._cycle_streaks = fresh = {}
        for cycle in cycles:
            count = streaks.get(cycle, 0) + 1
            fresh[cycle] = count
            if count >= self.DEADLOCK_PERSISTENCE_TICKS \
                    and cycle not in self._reported_cycles:
                self._reported_cycles.add(cycle)
                self.deadlocks.append(
                    DeadlockEvent(time_ns=now, cycle=cycle))

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> TelemetrySummary:
        """Detach the observations from the live engine/network.

        The lists are copied: a summary is a snapshot, and must not keep
        growing if the monitor ticks again after it was taken.
        """
        return TelemetrySummary(samples=list(self.samples),
                                events=list(self.events),
                                faults=list(self.faults),
                                deadlocks=list(self.deadlocks))


def _pause_cycles(edges: List[Tuple[str, str]]) -> List[Tuple[str, ...]]:
    """Cyclic buffer dependencies in the PFC waits-on graph.

    ``edges`` are ``(upstream, downstream)`` pairs: the upstream switch
    is currently held by a paused gate at the downstream switch, i.e.
    it *waits on* the downstream draining.  Every strongly-connected
    component with two or more members is a cyclic dependency; each is
    returned as the sorted tuple of its switch names, with the list
    itself sorted — fully deterministic for digests and tests.
    """
    adj: Dict[str, List[str]] = {}
    for upstream, downstream in edges:
        if upstream == downstream:
            continue
        adj.setdefault(upstream, []).append(downstream)
        adj.setdefault(downstream, [])
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: set = set()
    stack: List[str] = []
    next_index = 0
    cycles: List[Tuple[str, ...]] = []
    # Iterative Tarjan (no recursion limit concerns on large fabrics).
    for root in sorted(adj):
        if root in index:
            continue
        index[root] = lowlink[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = next_index
                    next_index += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.remove(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    cycles.append(tuple(sorted(component)))
    return sorted(cycles)
