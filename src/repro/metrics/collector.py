"""Flow, query, and network-level measurement.

One :class:`MetricsCollector` is shared by every component of a simulation.
Hosts record flow starts/completions and reordering; switches record drops
and deflections; the incast application records query lifecycles; the
coflow generator records coflow lifecycles.  The collector then exposes
the summary statistics the paper reports — FCT, QCT, CCT, completion
percentages, goodput, drop rates.

A measurement window (:meth:`MetricsCollector.set_window`) excludes
warmup and cooldown from every summary statistic: a flow, query, or
coflow contributes if and only if it *started* inside the window, so
records straddling a boundary are counted exactly once (by their start
side) and never split.  Network counters (drops, deflections, hops) are
dataplane totals and are deliberately not windowed — they describe the
whole run, including the traffic that warmed it up.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.metrics.stats import mean, percentile
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
    drops: Counter = field(default_factory=Counter)  # reason -> count
    #: The same drops keyed (priority class, reason); summing over
    #: classes reproduces ``drops`` exactly (tested).  Class 0 carries
    #: everything when no priority map is configured.
    class_drops: Counter = field(default_factory=Counter)

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())

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

    def _in_window(self, start_ns: int) -> bool:
        if start_ns < self.window_start:
            return False
        return self.window_end is None or start_ns < self.window_end

    def count_wire_drop(self, packet, reason: str) -> None:
        """Account one on-the-wire loss (``Link.on_drop`` hook)."""
        self.counters.drops[reason] += 1
        self.counters.class_drops[(packet.pclass, reason)] += 1

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
            query.flows_done += 1
            if query.flows_done == query.n_flows and query.end_ns is None:
                query.end_ns = end_ns
                if _TRACE is not None:
                    _TRACE.record(("query.end", end_ns, query.query_id,
                                   query.qct_ns))
        if record.coflow_id is not None:
            coflow = self.coflows[record.coflow_id]
            coflow.flows_done += 1
            if coflow.flows_done == coflow.n_flows and coflow.end_ns is None:
                coflow.end_ns = end_ns
                if _TRACE is not None:
                    _TRACE.record(("coflow.end", end_ns, coflow.coflow_id,
                                   coflow.cct_ns))

    # -- query lifecycle ----------------------------------------------------

    def query_started(self, query_id: int, client: int, start_ns: int,
                      n_flows: int) -> QueryRecord:
        record = QueryRecord(query_id=query_id, client=client,
                             start_ns=start_ns, n_flows=n_flows)
        self.queries[query_id] = record
        if _TRACE is not None:
            _TRACE.record(("query.start", start_ns, query_id, client,
                           n_flows))
        return record

    # -- coflow lifecycle ----------------------------------------------------

    def coflow_started(self, coflow_id: int, start_ns: int, n_flows: int,
                       stages: int, pattern: str = "shuffle") -> CoflowRecord:
        record = CoflowRecord(coflow_id=coflow_id, start_ns=start_ns,
                              n_flows=n_flows, stages=stages)
        self.coflows[coflow_id] = record
        if _TRACE is not None:
            _TRACE.record(("coflow.start", start_ns, coflow_id, pattern,
                           n_flows, stages))
        return record

    # -- summaries -----------------------------------------------------------

    def _fcts_s(self, *, incast_only: bool = False,
                background_only: bool = False,
                max_size: Optional[int] = None,
                min_size: Optional[int] = None) -> List[float]:
        values = []
        for flow in self.flows.values():
            if not flow.completed:
                continue
            if not self._in_window(flow.start_ns):
                continue
            if incast_only and not flow.is_incast:
                continue
            if background_only and flow.is_incast:
                continue
            if max_size is not None and flow.size > max_size:
                continue
            if min_size is not None and flow.size < min_size:
                continue
            # Reporting boundary: FCTs leave the simulator as float
            # seconds, the unit the paper's figures use.
            values.append(flow.fct_ns / SECOND)  # noqa: VR003
        return values

    def mean_fct_s(self, **filters) -> float:
        return mean(self._fcts_s(**filters))

    def p99_fct_s(self, **filters) -> float:
        return percentile(self._fcts_s(**filters), 99)

    def fct_samples_s(self, **filters) -> List[float]:
        return self._fcts_s(**filters)

    def _qcts_s(self) -> List[float]:
        # Reporting boundary: QCTs leave the simulator as float seconds.
        return [query.qct_ns / SECOND  # noqa: VR003
                for query in self.queries.values()
                if query.completed and self._in_window(query.start_ns)]

    def mean_qct_s(self) -> float:
        return mean(self._qcts_s())

    def p99_qct_s(self) -> float:
        return percentile(self._qcts_s(), 99)

    def qct_samples_s(self) -> List[float]:
        return self._qcts_s()

    def _ccts_s(self) -> List[float]:
        # Reporting boundary: CCTs leave the simulator as float seconds.
        return [coflow.cct_ns / SECOND  # noqa: VR003
                for coflow in self.coflows.values()
                if coflow.completed and self._in_window(coflow.start_ns)]

    def mean_cct_s(self) -> float:
        return mean(self._ccts_s())

    def p99_cct_s(self) -> float:
        return percentile(self._ccts_s(), 99)

    def cct_samples_s(self) -> List[float]:
        return self._ccts_s()

    def flow_completion_pct(self) -> float:
        flows = [flow for flow in self.flows.values()
                 if self._in_window(flow.start_ns)]
        if not flows:
            return math.nan
        done = sum(1 for flow in flows if flow.completed)
        return 100.0 * done / len(flows)

    def query_completion_pct(self) -> float:
        queries = [query for query in self.queries.values()
                   if self._in_window(query.start_ns)]
        if not queries:
            return math.nan
        done = sum(1 for query in queries if query.completed)
        return 100.0 * done / len(queries)

    def coflow_completion_pct(self) -> float:
        coflows = [coflow for coflow in self.coflows.values()
                   if self._in_window(coflow.start_ns)]
        if not coflows:
            return math.nan
        done = sum(1 for coflow in coflows if coflow.completed)
        return 100.0 * done / len(coflows)

    def goodput_bps(self, duration_ns: int, *,
                    min_size: Optional[int] = None) -> float:
        """Application-level delivered bytes per second.

        With a measurement window set, only flows started inside the
        window contribute and the window span replaces ``duration_ns``.
        """
        if self.window_end is not None:
            duration_ns = self.window_end - self.window_start
        if duration_ns <= 0:
            return math.nan
        delivered = sum(
            flow.bytes_delivered for flow in self.flows.values()
            if (min_size is None or flow.size >= min_size)
            and self._in_window(flow.start_ns))
        # Reporting boundary: goodput leaves the simulator as float bits/s.
        return delivered * 8 * SECOND / duration_ns  # noqa: VR003
