"""Flow, query, and network-level measurement.

One :class:`MetricsCollector` per simulation is the one record of what
the run measured.  Hosts record flow starts/completions and reordering;
switches, host NICs and links record drops; the incast and coflow
generators start queries and coflows, which the collector numbers
(1, 2, ... per run, whichever generator asks).

A measurement window (:meth:`MetricsCollector.set_window`) excludes
warmup and cooldown from every summary statistic: a flow, query, or
coflow belongs to the measured :meth:`~MetricsCollector.population` if
and only if it *started* inside the window, finished or not, so records
straddling a boundary are counted exactly once (by their start side).
Summaries read that population: :func:`completion_times_s` (FCT, QCT or
CCT), :func:`completion_pct` and :meth:`~MetricsCollector.goodput_bps`.
Network counters (drops, deflections, hops) are dataplane totals and
are deliberately not windowed — they describe the whole run, including
the traffic that warmed it up.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, TypeVar

from repro.sim.units import SECOND
from repro.trace import hooks as _trace_hooks

_TRACE = _trace_hooks.register(__name__)


@dataclass
class NetworkCounters:
    """Dataplane-wide counters."""

    forwarded: int = 0                # packets enqueued at any switch port
    delivered: int = 0                # data packets handed to a host stack
    deflections: int = 0              # deflection decisions taken
    hops_delivered: int = 0           # sum of hop counts of delivered packets
    reordered_arrivals: int = 0       # data arrivals below the max seq seen
    retransmissions: int = 0          # transport re-sends
    aborted_flows: int = 0            # senders that hit the retry limit
    #: Every drop, keyed (priority class, reason).  Class 0 carries
    #: everything when no priority map is configured.
    class_drops: Counter = field(default_factory=Counter)

    def count_drop(self, packet, reason: str) -> None:
        """Account one dropped packet: the one call of every drop site
        (switch, host NIC, and each link's ``on_drop`` hook)."""
        self.class_drops[(packet.pclass, reason)] += 1

    @property
    def drops(self) -> Mapping[str, int]:
        """Drops per reason, summed over classes (read-only; a missing
        reason reads 0)."""
        drops: Counter = Counter()
        for (_, reason), count in self.class_drops.items():
            drops[reason] += count
        return MappingProxyType(drops)

    @property
    def total_drops(self) -> int:
        return sum(self.class_drops.values())

    def mean_hops(self) -> float:
        if not self.delivered:
            return math.nan
        return self.hops_delivered / self.delivered

    def drop_rate(self) -> float:
        """Fraction of forwarded packets dropped in the network."""
        attempts = self.forwarded + self.total_drops
        return self.total_drops / attempts if attempts else 0.0


@dataclass
class FlowRecord:
    flow_id: int
    src: int
    dst: int
    size: int
    start_ns: int
    end_ns: Optional[int] = None
    bytes_delivered: int = 0
    is_incast: bool = False
    query_id: Optional[int] = None
    retransmissions: int = 0
    coflow_id: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.end_ns is not None

    @property
    def fct_ns(self) -> Optional[int]:
        return None if self.end_ns is None else self.end_ns - self.start_ns


@dataclass
class QueryRecord:
    query_id: int
    client: int
    start_ns: int
    n_flows: int
    flows_done: int = 0
    end_ns: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.end_ns is not None

    @property
    def qct_ns(self) -> Optional[int]:
        return None if self.end_ns is None else self.end_ns - self.start_ns


@dataclass
class CoflowRecord:
    """One coflow: every flow of every stage of one shuffle job.

    ``n_flows`` counts the flows of *all* stages (known up front from
    the spec), so the coflow completes — and its CCT is taken — when the
    last flow of the last stage finishes.
    """

    coflow_id: int
    start_ns: int
    n_flows: int
    stages: int
    flows_done: int = 0
    end_ns: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.end_ns is not None

    @property
    def cct_ns(self) -> Optional[int]:
        return None if self.end_ns is None else self.end_ns - self.start_ns


#: A flow, query or coflow record.
Record = TypeVar("Record", FlowRecord, QueryRecord, CoflowRecord)


def _member_done(group, end_ns: int) -> bool:
    """Count one finished member flow of a query or coflow; True when
    that finished the group."""
    group.flows_done += 1
    if group.flows_done == group.n_flows and group.end_ns is None:
        group.end_ns = end_ns
        return True
    return False


class MetricsCollector:
    """Shared sink for all measurements of a single simulation run."""

    def __init__(self) -> None:
        self.counters = NetworkCounters()
        self.flows: Dict[int, FlowRecord] = {}
        self.queries: Dict[int, QueryRecord] = {}
        self.coflows: Dict[int, CoflowRecord] = {}
        # Measurement window [start, end); end=None means unbounded.
        self.window_start = 0
        self.window_end: Optional[int] = None

    def set_window(self, start_ns: int, end_ns: Optional[int]) -> None:
        """Restrict every summary statistic to records whose *start*
        falls in ``[start_ns, end_ns)`` — the warmup/cooldown exclusion
        of duty-cycle-style sweeps."""
        if end_ns is not None and end_ns <= start_ns:
            raise ValueError("measurement window must be non-empty")
        self.window_start = start_ns
        self.window_end = end_ns

    def population(self, records: Mapping[int, Record]) -> List[Record]:
        """The records of ``records`` (:attr:`flows`, :attr:`queries` or
        :attr:`coflows`) that started in the measurement window, finished
        or not: the one population every summary statistic reads."""
        start, end = self.window_start, self.window_end
        return [record for record in records.values()
                if start <= record.start_ns
                and (end is None or record.start_ns < end)]

    # -- flow lifecycle ----------------------------------------------------

    def flow_started(self, flow_id: int, src: int, dst: int, size: int,
                     start_ns: int, *, is_incast: bool = False,
                     query_id: Optional[int] = None,
                     coflow_id: Optional[int] = None) -> FlowRecord:
        record = FlowRecord(flow_id=flow_id, src=src, dst=dst, size=size,
                            start_ns=start_ns, is_incast=is_incast,
                            query_id=query_id, coflow_id=coflow_id)
        self.flows[flow_id] = record
        if _TRACE is not None:
            _TRACE.record(("flow.start", start_ns, flow_id, src, dst, size,
                           is_incast, query_id))
        return record

    def flow_completed(self, flow_id: int, end_ns: int) -> None:
        record = self.flows.get(flow_id)
        if record is None or record.end_ns is not None:
            # Unregistered flows (endpoints used standalone, without the
            # experiment runner) complete silently.
            return
        record.end_ns = end_ns
        record.bytes_delivered = record.size
        if _TRACE is not None:
            _TRACE.record(("flow.end", end_ns, flow_id, record.fct_ns))
        if record.query_id is not None:
            query = self.queries[record.query_id]
            if _member_done(query, end_ns) and _TRACE is not None:
                _TRACE.record(("query.end", end_ns, query.query_id,
                               query.qct_ns))
        if record.coflow_id is not None:
            coflow = self.coflows[record.coflow_id]
            if _member_done(coflow, end_ns) and _TRACE is not None:
                _TRACE.record(("coflow.end", end_ns, coflow.coflow_id,
                               coflow.cct_ns))

    # -- query lifecycle ----------------------------------------------------

    def query_started(self, client: int, start_ns: int,
                      n_flows: int) -> QueryRecord:
        """Record a new query under the run's next query id."""
        query_id = len(self.queries) + 1
        record = QueryRecord(query_id=query_id, client=client,
                             start_ns=start_ns, n_flows=n_flows)
        self.queries[query_id] = record
        if _TRACE is not None:
            _TRACE.record(("query.start", start_ns, query_id, client,
                           n_flows))
        return record

    # -- coflow lifecycle ----------------------------------------------------

    def coflow_started(self, start_ns: int, n_flows: int, stages: int,
                       pattern: str = "shuffle") -> CoflowRecord:
        """Record a new coflow under the run's next coflow id."""
        coflow_id = len(self.coflows) + 1
        record = CoflowRecord(coflow_id=coflow_id, start_ns=start_ns,
                              n_flows=n_flows, stages=stages)
        self.coflows[coflow_id] = record
        if _TRACE is not None:
            _TRACE.record(("coflow.start", start_ns, coflow_id, pattern,
                           n_flows, stages))
        return record

    # -- summaries -----------------------------------------------------------

    def goodput_bps(self, duration_ns: int, *,
                    min_size: Optional[int] = None) -> float:
        """Application-level delivered bytes per second of the measured
        flows (those of at least ``min_size`` bytes, if given).

        With a measurement window set, the window span replaces
        ``duration_ns``.
        """
        if self.window_end is not None:
            duration_ns = self.window_end - self.window_start
        if duration_ns <= 0:
            return math.nan
        delivered = sum(flow.bytes_delivered
                        for flow in self.population(self.flows)
                        if min_size is None or flow.size >= min_size)
        # Reporting boundary: goodput leaves the simulator as float bits/s.
        return delivered * 8 * SECOND / duration_ns  # noqa: VR003


def completion_times_s(records: Iterable[Record]) -> List[float]:
    """The FCTs, QCTs or CCTs of the finished ``records``, in order."""
    # Reporting boundary: completion times leave the simulator as float
    # seconds, the unit the paper's figures use.
    return [(record.end_ns - record.start_ns) / SECOND  # noqa: VR003
            for record in records if record.end_ns is not None]


def completion_pct(records: List[Record]) -> float:
    """Percent of ``records`` that finished; NaN when there are none."""
    if not records:
        return math.nan
    done = sum(1 for record in records if record.end_ns is not None)
    return 100.0 * done / len(records)
