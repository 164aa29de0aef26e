"""The unified result surface of a run: :class:`RunReport`.

One documented object for everything a run produced — the paper's
summary metrics, counters, telemetry, trace and fidelity/PFC sections —
that ``format_table``, the benchmark harness, and the CLI all consume.

Schema (``to_dict()``), by section:

- ``row`` — the paper-figure summary row, the keys of
  ``RunResult.row()`` (``system``, ``transport``, ``load_pct``,
  ``mean_fct_s``, ``p99_fct_s``, ``mean_qct_s``, ``p99_qct_s``,
  ``flow_completion_pct``, ``query_completion_pct``, ``goodput_gbps``,
  ``drop_pct``, ``deflections``, ``mean_hops``, ``reordered``,
  ``retransmissions``).  The determinism digest hashes this row, so its
  keys and values are stable by contract.  Runs that recorded coflows
  append the :data:`COFLOW_ROW_KEYS` columns (``mean_cct_s``,
  ``p99_cct_s``, ``coflow_completion_pct``); coflow-free rows carry
  exactly the keys above.
- ``run`` — run identity and volume: ``seed``, ``sim_time_ns``,
  ``events_executed``, ``bg_flows_generated``, ``queries_issued``,
  ``flows_recorded``, ``queries_recorded`` (plus ``coflows_launched``
  and ``coflows_recorded`` for coflow runs).  The collector numbers and
  records every query and coflow a generator starts, so an issued and a
  recorded count are one fact, read off the same records; both keys
  stay because recorded ledger digests hash this schema.
- ``drops`` — per-reason drop counters (sorted by reason).
- ``telemetry`` — congestion-monitor section (``mean_utilization``,
  ``microbursts``, ``persistent``, ``samples``) or None when no monitor
  was attached.
- ``trace`` — observability section (``level``, ``events``, ``samples``,
  ``dropped_events``, ``dropped_samples``, per-kind ``counts``) or None
  when tracing was off.
- ``profile`` — wall seconds per run phase (build/run/finalize).
  Nondeterministic; excluded from digests.
- ``fidelity`` — hybrid-fidelity section (mode, link counts, analytic
  residency, transition/round counters; see :mod:`repro.net.fidelity`)
  or None in pure packet mode.
- ``drops_by_class`` — the same drop counters keyed
  ``(priority class, reason)``; summing over classes reproduces
  ``drops`` exactly (see :mod:`repro.net.pfc`).
- ``pfc`` — lossless-fabric section (gate count, pause events/time,
  headroom drops, per-direction pause table, and ``deadlocks`` only
  when some gates can never drain; see :mod:`repro.net.pfc`) or None
  when PFC is off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.metrics.collector import completion_pct, completion_times_s
from repro.metrics.stats import mean, percentile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import RunResult

#: The summary-row keys, in their canonical order (digest-stable).
ROW_KEYS = (
    "system", "transport", "load_pct", "mean_fct_s", "p99_fct_s",
    "mean_qct_s", "p99_qct_s", "flow_completion_pct",
    "query_completion_pct", "goodput_gbps", "drop_pct", "deflections",
    "mean_hops", "reordered", "retransmissions",
)

#: Coflow-completion-time columns, appended to the row only for runs
#: that recorded coflows — coflow-free rows keep the historical
#: :data:`ROW_KEYS` shape exactly (digest-stable).
COFLOW_ROW_KEYS = ("mean_cct_s", "p99_cct_s", "coflow_completion_pct")


@dataclass
class RunReport:
    """One run's complete, picklable reporting surface."""

    summary: Dict[str, object]
    run: Dict[str, object]
    drops: List[tuple]
    telemetry: Optional[Dict[str, object]] = None
    trace: Optional[Dict[str, object]] = None
    profile: Dict[str, float] = field(default_factory=dict)
    fidelity: Optional[Dict[str, object]] = None
    drops_by_class: List[tuple] = field(default_factory=list)
    pfc: Optional[Dict[str, object]] = None

    @classmethod
    def from_result(cls, result: "RunResult") -> "RunReport":
        metrics = result.metrics
        counters = metrics.counters
        config = result.config
        flows = metrics.population(metrics.flows)
        queries = metrics.population(metrics.queries)
        fcts = completion_times_s(flows)
        qcts = completion_times_s(queries)
        summary: Dict[str, object] = {
            "system": config.system.name,
            "transport": config.transport_name,
            "load_pct": round(100 * config.workload.total_load),
            "mean_fct_s": mean(fcts),
            "p99_fct_s": percentile(fcts, 99),
            "mean_qct_s": mean(qcts),
            "p99_qct_s": percentile(qcts, 99),
            "flow_completion_pct": completion_pct(flows),
            "query_completion_pct": completion_pct(queries),
            # Reporting boundary: Gbit/s for the summary table.
            "goodput_gbps":
                metrics.goodput_bps(result.duration_ns) / 1e9,  # noqa: VR003
            "drop_pct": 100 * counters.drop_rate(),
            "deflections": counters.deflections,
            "mean_hops": counters.mean_hops(),
            "reordered": counters.reordered_arrivals,
            "retransmissions": counters.retransmissions,
        }
        if metrics.coflows:
            coflows = metrics.population(metrics.coflows)
            ccts = completion_times_s(coflows)
            summary["mean_cct_s"] = mean(ccts)
            summary["p99_cct_s"] = percentile(ccts, 99)
            summary["coflow_completion_pct"] = completion_pct(coflows)
        run = {
            "seed": config.seed,
            "sim_time_ns": config.sim_time_ns,
            "events_executed": result.engine.events_executed,
            "bg_flows_generated": result.bg_flows_generated,
            "queries_issued": result.queries_issued,
            "flows_recorded": len(metrics.flows),
            "queries_recorded": len(metrics.queries),
        }
        if metrics.coflows:
            run["coflows_launched"] = result.coflows_launched
            run["coflows_recorded"] = len(metrics.coflows)
        telemetry = None
        if result.telemetry is not None:
            telemetry = result.telemetry.section()
        trace = None
        if result.trace is not None:
            data = result.trace
            trace = {
                "level": data.config.level,
                "events": len(data.events),
                "samples": len(data.samples),
                "dropped_events": data.dropped_events,
                "dropped_samples": data.dropped_samples,
                "counts": data.counts(),
            }
        return cls(summary=summary, run=run,
                   drops=sorted(counters.drops.items()),
                   telemetry=telemetry, trace=trace,
                   profile=dict(result.profile),
                   fidelity=(dict(result.fidelity)
                             if result.fidelity is not None else None),
                   drops_by_class=sorted(counters.class_drops.items()),
                   pfc=(dict(result.pfc)
                        if result.pfc is not None else None))

    def row(self) -> Dict[str, object]:
        """The paper-figure summary row (historical ``RunResult.row()``),
        extended by the CCT columns when the run recorded coflows."""
        keys = ROW_KEYS + tuple(key for key in COFLOW_ROW_KEYS
                                if key in self.summary)
        return {key: self.summary[key] for key in keys}

    def to_dict(self) -> Dict[str, object]:
        """The full documented schema (see module docstring)."""
        return {
            "row": self.row(),
            "run": dict(self.run),
            "drops": [list(item) for item in self.drops],
            "telemetry": dict(self.telemetry) if self.telemetry else None,
            "trace": dict(self.trace) if self.trace else None,
            "profile": dict(self.profile),
            "fidelity": dict(self.fidelity) if self.fidelity else None,
            "drops_by_class": [[list(key), count]
                               for key, count in self.drops_by_class],
            "pfc": dict(self.pfc) if self.pfc else None,
        }


def placeholder_row(config, status: str) -> Dict[str, object]:
    """A summary row for a sweep point that produced no result.

    Carries the identity keys a table needs (``system``, ``transport``,
    ``load_pct``) plus a ``status`` column; every metric key from
    :data:`ROW_KEYS` is present but ``None``, which ``format_table``
    renders as ``-`` — degraded sweeps print aligned tables with their
    missing points visible instead of crashing.
    """
    row: Dict[str, object] = {key: None for key in ROW_KEYS}
    row["system"] = config.system.name
    row["transport"] = config.transport_name
    row["load_pct"] = round(100 * config.workload.total_load)
    row["status"] = status
    return row
