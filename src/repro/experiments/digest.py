"""Canonical determinism digest of a run (shared by tests and tooling).

The digest covers everything a figure could be built from — the summary
row, per-flow and per-query records, drop reasons, and the number of
events executed — serialized to canonical JSON and hashed.  Two runs
with the same config and seed must produce the same digest whether they
executed in this process or in a sweep worker
(:mod:`repro.experiments.parallel`), under the sanitizer or not.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RunResult


def run_digest(result: RunResult) -> str:
    """SHA-256 over a canonical JSON view of everything reportable."""
    metrics = result.metrics
    # Flow tuples keep their historical 10-element shape; the coflow
    # membership column is appended only when the run recorded coflows,
    # so pre-coflow configurations hash identically.
    coflow_tail = bool(metrics.coflows)
    flows = [
        (f.flow_id, f.src, f.dst, f.size, f.start_ns, f.end_ns,
         f.bytes_delivered, f.is_incast, f.query_id, f.retransmissions)
        + ((f.coflow_id,) if coflow_tail else ())
        for f in sorted(metrics.flows.values(), key=lambda f: f.flow_id)
    ]
    queries = [
        (q.query_id, q.client, q.start_ns, q.n_flows, q.flows_done, q.end_ns)
        for q in sorted(metrics.queries.values(), key=lambda q: q.query_id)
    ]
    view = {
        "row": result.row(),
        # Traces are deterministic sim-time records; when enabled they are
        # covered by the digest (the trace digest is itself a SHA-256 of
        # the canonical JSONL export).  Untraced runs hash identically to
        # runs from before tracing existed.
        **({"trace": result.trace.digest()}
           if result.trace is not None else {}),
        # The fidelity policy and its deterministic runtime aggregates
        # (mode residency, transition counts) join the digest whenever
        # the analytic path is enabled; pure packet runs hash identically
        # to runs from before hybrid fidelity existed.
        **({"fidelity": [list(result.config.fidelity.digest_view()),
                         sorted(result.fidelity.items())]}
           if result.fidelity is not None else {}),
        # Priority lanes / PFC join the digest whenever the config is
        # non-default: the lane structure, thresholds, pause aggregates,
        # and class-keyed drops are all deterministic.  Default (1 lane,
        # PFC off) runs hash identically to runs from before PFC existed.
        **({"pfc": [list(result.config.pfc.digest_view()),
                    (sorted(result.pfc.items())
                     if result.pfc is not None else None),
                    sorted([key[0], key[1], count] for key, count in
                           metrics.counters.class_drops.items())]}
           if result.config.pfc.configured else {}),
        # Coflow lifecycles join the digest whenever the run recorded
        # any; coflow-free runs hash identically to runs from before
        # the coflow generator existed.
        **({"coflows": [
                (c.coflow_id, c.start_ns, c.n_flows, c.flows_done,
                 c.end_ns, c.stages)
                for c in sorted(metrics.coflows.values(),
                                key=lambda c: c.coflow_id)],
            "coflows_launched": result.coflows_launched}
           if metrics.coflows else {}),
        "faults": [(spec.kind, list(spec.link), spec.at_ns, spec.rate_bps,
                    spec.loss_rate) for spec in result.config.faults],
        "drops": sorted(metrics.counters.drops.items()),
        "events_executed": result.engine.events_executed,
        "bg_flows": result.bg_flows_generated,
        "queries_issued": result.queries_issued,
        "flows": flows,
        "queries": queries,
    }
    payload = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def config_digest(config: ExperimentConfig) -> str:
    """SHA-256 identity of one sweep point, before it runs.

    Hashes the config's canonical value ``repr`` — every component
    (topology, network parameters, system, transport, workload, faults,
    trace settings, seed) renders as a value, so two configs describing
    the same run digest identically across processes and interpreter
    sessions.  The sweep journal (:mod:`repro.runtime.journal`) keys
    completed points by this digest to match them up on ``--resume``.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()


def sweep_digest(entries: Iterable) -> str:
    """SHA-256 over a whole sweep, order-sensitive.

    ``entries`` may mix :class:`RunResult` objects (hashed via
    :func:`run_digest`) and pre-computed digest strings.  A resumed sweep
    is correct exactly when its sweep digest matches the uninterrupted
    run's — ``tests/integration/test_runtime_chaos.py`` compares the
    two byte for byte.
    """
    parts = []
    for entry in entries:
        parts.append(entry if isinstance(entry, str) else run_digest(entry))
    payload = "\n".join(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
