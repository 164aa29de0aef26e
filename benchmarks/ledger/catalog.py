"""The metric catalogue: every name the ledger reports, once.

``BENCHMARK.json`` lists the same names (a self-test keeps the two in
step); the README glossary is the prose form of this file.  ``time``
says which clock a metric reads: ``host`` (what the simulator costs),
``sim`` (what the modelled network did) or ``-`` (a pure count/ratio).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from spans import LAYER_NAMES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "lower" | "higher"
    time: str              # "host" | "sim" | "-"
    what: str
    #: End-to-end only: share of the parent's median by which the metric
    #: may worsen before it counts as a regression.
    bound: Optional[float] = None


#: What a user of the simulator sees.  ``fail_share`` is the fourth
#: end-to-end metric of the native report; ``BENCHMARK.json`` carries it
#: as the ``attempted``/``failed`` pair instead, because a metric that is
#: 0 on every healthy run has no spread to bound.
END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_s_per_sim_s", "s/sim_s", "lower", "host",
           "timed-region wall (config in -> summary row out) per simulated "
           "second: sum of each sub-seed's median over the sub-seeds' "
           "simulated seconds; reference-box seconds", bound=0.25),
    Metric("setup_s", "s", "lower", "host",
           "time to first event in a fresh interpreter: import repro + "
           "config + build + finalize with sim_time_ns=1; median of the "
           "probes; reference-box seconds", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", "host",
           "ru_maxrss of the workload's own subprocess after the warm-up "
           "and one pass over its sub-seeds (sweep: max of parent and "
           "largest reaped worker)", bound=0.25),
)

FAIL_SHARE = Metric(
    "fail_share", "ratio", "lower", "-",
    "failed / attempted operations (runs, probes, sweep points); failed = "
    "raised, outcome not ok, invariant broken, or digest differs from the "
    "first run of the same input", bound=0.0)


def _ledger() -> Tuple[Metric, ...]:
    out = []
    for layer in LAYER_NAMES:
        out.append(Metric(f"{layer}.self_us_per_sim_ms", "us/sim_ms",
                          "lower", "host",
                          f"self time of layer {layer} per simulated ms, "
                          f"wrapper cost taken out"))
        out.append(Metric(f"{layer}.entries_per_sim_ms", "1/sim_ms",
                          "lower", "-",
                          f"cross-layer entries into {layer} per simulated "
                          f"ms (deterministic)"))
    return tuple(out)


RATIOS: Tuple[Metric, ...] = (
    Metric("sim.engine.events_per_sim_ms", "1/sim_ms", "lower", "-",
           "events executed per simulated ms"),
    Metric("sim.engine.events_per_hop", "ratio", "lower", "-",
           "events executed per forwarded packet-hop"),
    Metric("sim.engine.fast_share", "ratio", "higher", "-",
           "schedule_fast calls / all schedule calls"),
    Metric("net.link.tx_per_try", "ratio", "higher", "-",
           "packets sent by all ports / Port._try_transmit calls "
           "(useful / attempted)"),
    Metric("net.queues.ops_per_hop", "ratio", "lower", "-",
           "method calls inside net.queues per packet-hop"),
    Metric("core.scheduler.ops_per_hop", "ratio", "lower", "-",
           "method calls inside core.scheduler per packet-hop"),
    Metric("core.cuckoo.ops_per_data_pkt", "ratio", "lower", "-",
           "method calls inside core.cuckoo per marked data packet"),
    Metric("core.ordering.reordered_share", "ratio", "lower", "-",
           "packets the ordering shim buffered / packets it saw"),
    Metric("forwarding.deflections_per_hop", "ratio", "lower", "-",
           "deflection decisions per packet-hop"),
    Metric("net.switch.drop_share", "ratio", "lower", "-",
           "drops / (forwarded + drops)"),
    Metric("transport.rtx_per_flow", "ratio", "lower", "-",
           "transport retransmissions per recorded flow"),
    Metric("transport.rto_per_sim_ms", "1/sim_ms", "lower", "-",
           "retransmission timeouts fired per simulated ms"),
    Metric("net.fidelity.residency_permille", "permille", "higher", "-",
           "share of link-time spent analytic (hybrid runs)"),
    Metric("net.fidelity.rounds_per_flow", "ratio", "lower", "-",
           "analytic cwnd rounds per recorded flow"),
    Metric("net.fidelity.demotions", "count", "lower", "-",
           "links demoted to packet fidelity"),
    Metric("net.pfc.pauses_per_sim_ms", "1/sim_ms", "lower", "-",
           "PFC pause events per simulated ms"),
    Metric("net.pfc.gate_ops_per_hop", "ratio", "lower", "-",
           "PfcGate method calls per packet-hop"),
    Metric("trace.records_per_hop", "ratio", "lower", "-",
           "trace events emitted per packet-hop"),
    Metric("trace.samples_per_sim_ms", "1/sim_ms", "lower", "-",
           "trace samples emitted per simulated ms"),
    Metric("workload.flows_per_sim_ms", "1/sim_ms", "higher", "-",
           "flows recorded per simulated ms (input size)"),
)

OUTSIDE: Tuple[Metric, ...] = (
    Metric("trace.overhead_pct", "%", "lower", "host",
           "traced-packet wall / same config untraced - 1"),
    Metric("trace.export_us_per_record", "us", "lower", "host",
           "write_jsonl to a temp file, per line written"),
    Metric("metrics.report_ms", "ms", "lower", "host",
           "result.report().row()"),
    Metric("metrics.digest_ms", "ms", "lower", "host", "run_digest(result)"),
    Metric("experiments.runner.import_ms", "ms", "lower", "host",
           "import half of setup_s"),
    Metric("experiments.runner.build_ms", "ms", "lower", "host",
           "config + build + finalize half of setup_s"),
    Metric("runtime.dispatch_ms_per_point", "ms", "lower", "host",
           "the sweep's points at sim_time_ns=1 through "
           "run_supervised(jobs=2), wall / points"),
    Metric("runtime.serial_overhead_ms_per_point", "ms", "lower", "host",
           "run_supervised(jobs=1) wall minus the points' own profile, "
           "/ points"),
    Metric("runtime.result_pickle_kb", "KiB", "lower", "-",
           "len(pickle.dumps(result.portable()))"),
    Metric("runtime.result_pickle_ms", "ms", "lower", "host",
           "pickle.dumps(result.portable())"),
    Metric("runtime.pool_efficiency", "ratio", "higher", "host",
           "in-worker profile seconds / (jobs x sweep wall)"),
    Metric("checkpoint.write_ms", "ms", "lower", "host",
           "one mid-run checkpoint write"),
    Metric("checkpoint.payload_kb", "KiB", "lower", "-",
           "pickle payload of that checkpoint"),
)

MODELLED: Tuple[Metric, ...] = (
    Metric("metrics.mean_fct_ms", "ms", "lower", "sim",
           "mean flow completion time"),
    Metric("metrics.p99_fct_ms", "ms", "lower", "sim", "p99 FCT"),
    Metric("metrics.p99_qct_ms", "ms", "lower", "sim",
           "p99 query completion time"),
    Metric("metrics.flow_completion_pct", "%", "higher", "sim",
           "flows completed"),
    Metric("metrics.query_completion_pct", "%", "higher", "sim",
           "queries completed"),
    Metric("metrics.goodput_gbps", "Gbps", "higher", "sim", "goodput"),
    Metric("metrics.drop_pct", "%", "lower", "sim", "packets dropped"),
)

HEALTH: Tuple[Metric, ...] = (
    Metric("bench.cpu_over_wall", "ratio", "higher", "host",
           "process CPU / wall over the untraced runs; < 0.9 on a "
           "single-process workload means the box was contended"),
    Metric("bench.wall_iqr_pct", "%", "lower", "host",
           "IQR / median of repeated identical untraced runs"),
    Metric("bench.box_slowdown", "ratio", "lower", "host",
           "calibration kernel time / its time on the quiet reference box, "
           "median over the untraced runs; host times are divided by it"),
    Metric("bench.span_cost_ns", "ns", "lower", "host",
           "cost of one span, calibrated on a wrapped no-op"),
    Metric("bench.spans_overhead_pct", "%", "lower", "host",
           "spans run wall / untraced run wall at the same horizon - 1"),
    Metric("bench.digest_matches_recorded", "flag", "higher", "-",
           "1 = stats_digest equals baseline.json, 0 = differs, "
           "-1 = nothing recorded for this seed/mode"),
    Metric("bench.names_missing", "count", "lower", "-",
           "named functions the ratio metrics could not find"),
    Metric("bench.fail_share", "ratio", "lower", "-", FAIL_SHARE.what),
)

MICRO: Tuple[Metric, ...] = (
    Metric("sim.engine.micro_event_ns", "ns", "lower", "host",
           "Engine.schedule + execute one event"),
    Metric("sim.engine.micro_fast_event_ns", "ns", "lower", "host",
           "Engine.schedule_fast + execute one event"),
    Metric("net.queues.micro_droptail_ns", "ns", "lower", "host",
           "DropTailQueue push + pop"),
    Metric("net.queues.micro_ranked_ns", "ns", "lower", "host",
           "RankedQueue push + pop at a standing depth of 16"),
    Metric("net.queues.micro_lanes2_ns", "ns", "lower", "host",
           "ClassLaneQueue (2 DropTail lanes) push + pop"),
    Metric("core.scheduler.micro_pushpop_ns", "ns", "lower", "host",
           "RankQueue push + pop_min at a standing depth of 16"),
    Metric("core.cuckoo.micro_lookup_ns", "ns", "lower", "host",
           "CuckooFilter.contains on a present key"),
    Metric("core.marking.micro_mark_ns", "ns", "lower", "host",
           "MarkingComponent.mark on a first-transmission data packet"),
    Metric("core.ordering.micro_inorder_ns", "ns", "lower", "host",
           "OrderingComponent.on_packet, in-order arrival"),
    Metric("forwarding.micro_ecmp_route_ns", "ns", "lower", "host",
           "EcmpPolicy.route into a port that fits"),
    Metric("forwarding.micro_vertigo_route_ns", "ns", "lower", "host",
           "VertigoPolicy.route into a port that fits"),
    Metric("net.link.micro_port_cycle_ns", "ns", "lower", "host",
           "Port enqueue -> transmit -> deliver to a sink device"),
)

LEDGER: Tuple[Metric, ...] = _ledger()

PER_LAYER: Tuple[Metric, ...] = \
    LEDGER + RATIOS + OUTSIDE + MODELLED + HEALTH + MICRO

BY_NAME = {metric.name: metric
           for metric in END_TO_END + (FAIL_SHARE,) + PER_LAYER}
