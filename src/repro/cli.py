"""Command-line interface (``python -m repro``).

Subcommands::

    python -m repro run   --system vertigo --transport dctcp \\
        --bg-load 0.5 --incast-load 0.25 --sim-ms 200 \\
        --trace out.jsonl --trace-level packet --sample-us 100
    python -m repro run   --system vertigo --sim-ms 100 \\
        --workload coflow:width=8,stages=2,load=0.2 \\
        --workload background:load=0.2 --warmup 10ms --cooldown 10ms
    python -m repro sweep --systems ecmp,drill,dibs,vertigo --seeds 3
    python -m repro lint  src
    python -m repro trace-view out.jsonl --validate --chrome out.json

``run`` is one run of one config; ``sweep`` is a systems x seeds grid
under the supervisor (N seeds of one system is ``sweep --systems X
--seeds N --jobs J``).  All knobs default to the scaled bench profile
(DESIGN.md); pass ``--paper-scale`` for the full 320-server
configuration (slow!).  A flag combination that would do nothing is a
usage error (exit 2), never a silent no-op.

Each command imports what it runs, inside its handler: ``lint``,
``trace-view`` and ``--help`` load no simulator module.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace as _replace
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import ExperimentConfig
    from repro.trace.config import TraceConfig

SUBCOMMANDS = ("run", "sweep", "lint", "trace-view")

_EPILOG = (
    "subcommands: run | sweep | lint | trace-view; "
    "run `python -m repro <subcommand> --help` for each."
)


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    """The experiment knobs shared by ``run`` and ``sweep``."""
    from repro.net.builder import FIDELITY_MODES
    from repro.trace.config import TRACE_LEVELS

    parser.add_argument("--transport",
                        choices=["reno", "dctcp", "swift", "dcqcn"],
                        default="dctcp",
                        help="transport; 'dcqcn' is the rate-based "
                             "lossless-fabric control (pair with --pfc)")
    parser.add_argument("--bg-load", type=float, default=None,
                        help="background load fraction (default 0.5)")
    parser.add_argument("--incast-load", type=float, default=None,
                        help="incast load fraction (default 0.25)")
    parser.add_argument("--incast-scale", type=int, default=None,
                        help="servers per incast query (default 12)")
    parser.add_argument("--incast-flow-bytes", type=int, default=None,
                        help="bytes per incast response (default 10000)")
    parser.add_argument("--sim-ms", type=int, default=None,
                        help="simulated milliseconds (default: the "
                             "profile's, 200 bench / 5000 paper)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fat-tree", type=int, metavar="K", default=None,
                        help="use a fat-tree of degree K instead of "
                             "leaf-spine")
    parser.add_argument("--paper-scale", action="store_true",
                        help="full 320-server paper topology (very slow)")
    parser.add_argument("--fidelity", choices=list(FIDELITY_MODES),
                        default="packet",
                        help="simulation fidelity: 'packet' (full "
                             "packet-level, default), 'hybrid' (analytic "
                             "fast path on uncongested links, demoting to "
                             "packets under congestion), or 'flow' "
                             "(always analytic; fast but coarse)")
    parser.add_argument("--pfc", action="store_true",
                        help="lossless fabric: per-class PFC PAUSE with "
                             "XOFF/XON thresholds (repro.net.pfc)")
    parser.add_argument("--pfc-classes", type=int, default=1, metavar="N",
                        help="priority-class lanes per port (default 1); "
                             "flows map to class flow_id %% N")
    parser.add_argument("--pfc-headroom", type=int, default=None,
                        metavar="BYTES",
                        help="PFC headroom above XOFF (default: auto, "
                             "2 x BDP + 2 MTU — lossless; 0 drops "
                             "post-XOFF arrivals)")
    parser.add_argument("--demote-shares", type=int, default=None,
                        metavar="N",
                        help="hybrid fidelity: demote a link to packet "
                             "mode above N active flow shares (default "
                             "64; bounds the incast fan-in the analytic "
                             "path absorbs, see EXPERIMENTS.md)")
    parser.add_argument("--fault", action="append", default=[],
                        metavar="DIRECTIVE", dest="faults",
                        help="inject a fault scenario, e.g. "
                             "link:leaf0-spine1:down@50ms,up@120ms or "
                             "link:leaf0-spine1:loss=0.01@0ms; "
                             "repeatable")
    parser.add_argument("--workload", action="append", default=[],
                        metavar="SPEC", dest="workloads",
                        help="compose the traffic mix from workload specs "
                             "(instead of --bg-load/--incast-*), "
                             "e.g. background:load=0.3,dist=web_search or "
                             "incast:scale=24,load=0.1 or "
                             "coflow:width=8,stages=2,load=0.2 or "
                             "duty_cycle:load=0.3,duty=0.1,period=1ms; "
                             "repeatable")
    parser.add_argument("--warmup", default=None, metavar="TIME",
                        help="exclude flows starting in the first TIME "
                             "(e.g. 10ms) from all summary metrics")
    parser.add_argument("--cooldown", default=None, metavar="TIME",
                        help="exclude flows starting in the last TIME "
                             "from all summary metrics")
    parser.add_argument("--checkpoint-every", type=float, default=None,
                        metavar="SIM_MS", dest="checkpoint_every",
                        help="snapshot the full simulation state every "
                             "SIM_MS simulated milliseconds (atomic, "
                             "digest-verified); a crashed or killed "
                             "run auto-resumes from its last checkpoint "
                             "on re-invocation, and results are "
                             "byte-identical to an uninterrupted run")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        dest="checkpoint_dir",
                        help="directory for managed checkpoint files "
                             "(default .repro-checkpoints), keyed by "
                             "config digest")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a trace (repro.trace) and write it "
                             "as deterministic JSONL to PATH (trace-view "
                             "--chrome converts it for Perfetto)")
    parser.add_argument("--trace-level", choices=list(TRACE_LEVELS),
                        default=None,
                        help="trace granularity: 'flow' (default; flow/query "
                             "lifecycle + congestion-control events) or "
                             "'packet' (adds per-packet queue/deflect/"
                             "drop/ECN/ordering events)")
    parser.add_argument("--sample-us", type=int, default=None, metavar="N",
                        help="also sample port queues/utilization and "
                             "flow cwnd every N microseconds of sim time")


def build_parser() -> argparse.ArgumentParser:
    """The ``run`` parser."""
    from repro.experiments.config import ALL_SYSTEMS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vertigo (CoNEXT 2021) reproduction: run one "
                    "simulated datacenter experiment.",
        epilog=_EPILOG)
    parser.add_argument("--system", choices=ALL_SYSTEMS,
                        default="vertigo")
    _add_experiment_arguments(parser)
    return parser


def _trace_config_from_args(args: argparse.Namespace
                            ) -> Optional[TraceConfig]:
    from repro.trace.config import TraceConfig

    if not args.trace:
        if args.sample_us is not None or args.trace_level is not None:
            raise ValueError("--sample-us/--trace-level require --trace")
        return None
    # The export opens the path after every run: refuse one it cannot
    # open before any run, so no trace is lost.
    if os.path.isdir(args.trace):
        raise ValueError(f"--trace {args.trace} is a directory")
    directory = os.path.dirname(args.trace) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"--trace {args.trace}: no directory {directory}")
    # --sample-us 0 reaches TraceConfig as a period of 0, which it
    # rejects like a negative one: a flag that would do nothing.
    period = args.sample_us * 1000 if args.sample_us is not None else None
    return TraceConfig(level=args.trace_level or "flow",
                       sample_period_ns=period)


#: The profile's default traffic mix, one entry per mix flag.
_MIX_DEFAULTS = {"bg_load": 0.5, "incast_load": 0.25, "incast_scale": 12,
                 "incast_flow_bytes": 10_000}


def _check_horizon(config: ExperimentConfig) -> None:
    """Refuse a timed flag whose first action falls after the run ends:
    a fault applied after the horizon, a checkpoint cadence the run never
    reaches (the horizon is no epoch boundary) or a sample period longer
    than the run."""
    end = config.sim_time_ns
    for spec in config.faults:
        if spec.at_ns > end:
            raise ValueError(f"--fault {spec.describe()} falls after the "
                             f"run ends at {end}ns")
    if config.checkpoint is not None and config.checkpoint.every_ns >= end:
        raise ValueError(f"--checkpoint-every {config.checkpoint.every_ns}ns "
                         f"never checkpoints a run of {end}ns")
    period = config.trace.sample_period_ns \
        if config.trace is not None else None
    if period is not None and period > end:
        raise ValueError(f"--sample-us {period // 1000} takes no sample in "
                         f"a run of {end}ns")


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    from repro.checkpoint.config import CheckpointConfig
    from repro.experiments.config import ExperimentConfig, WorkloadConfig
    from repro.experiments.runner import measurement_window
    from repro.faults.spec import parse_faults, parse_time_ns
    from repro.net.builder import FidelityConfig, PfcConfig, check_cables
    from repro.net.topology import FatTree
    from repro.sim.units import MILLISECOND
    from repro.workload.spec import check_hosts, parse_workloads

    mix = {key: getattr(args, key) for key in _MIX_DEFAULTS}
    given = [key for key, value in mix.items() if value is not None]
    if args.workloads and given:
        raise ValueError("--workload composes the whole traffic mix; "
                         + "/".join("--" + key.replace("_", "-")
                                    for key in given)
                         + " would be ignored")
    mix = {key: _MIX_DEFAULTS[key] if value is None else value
           for key, value in mix.items()}
    if args.paper_scale:
        if args.fat_tree is not None:
            raise ValueError("--paper-scale (the paper's leaf-spine) "
                             "cannot be combined with --fat-tree")
        config = ExperimentConfig.paper_profile(
            system=args.system, transport=args.transport, **mix)
        config.seed = args.seed
    else:
        topology = (FatTree(args.fat_tree) if args.fat_tree is not None
                    else None)
        config = ExperimentConfig.bench_profile(
            system=args.system, transport=args.transport, **mix,
            topology=topology, seed=args.seed)
    if args.sim_ms is not None:
        if args.sim_ms <= 0:
            raise ValueError(f"--sim-ms must be positive, got {args.sim_ms}")
        config.sim_time_ns = args.sim_ms * MILLISECOND
    if args.workloads:
        # A spec-composed mix replaces the profile's default generators.
        config.workload = WorkloadConfig(parse_workloads(args.workloads))
    if args.warmup or args.cooldown:
        config.workload = _replace(
            config.workload,
            warmup_ns=parse_time_ns(args.warmup) if args.warmup else 0,
            cooldown_ns=parse_time_ns(args.cooldown) if args.cooldown else 0)
        measurement_window(config)  # raises if the flags leave no window
    check_hosts(config.workload.specs, config.topology.n_hosts)
    config.faults = parse_faults(args.faults)
    config.trace = _trace_config_from_args(args)
    if args.checkpoint_every is not None:
        config.checkpoint = CheckpointConfig.every_ms(
            args.checkpoint_every, directory=args.checkpoint_dir)
    elif args.checkpoint_dir is not None:
        raise ValueError("--checkpoint-dir requires --checkpoint-every")
    check_cables(config.faults, config.topology)
    _check_horizon(config)
    if args.demote_shares is not None:
        if args.fidelity == "packet":
            raise ValueError("--demote-shares requires --fidelity hybrid "
                             "or flow")
        config.fidelity = FidelityConfig(mode=args.fidelity,
                                         demote_shares=args.demote_shares)
    else:
        config.fidelity = FidelityConfig(mode=args.fidelity)
    if args.pfc_classes < 1:
        raise ValueError(f"--pfc-classes must be at least 1, "
                         f"got {args.pfc_classes}")
    if args.pfc_headroom is not None and not args.pfc:
        raise ValueError("--pfc-headroom requires --pfc")
    if args.pfc or args.pfc_classes > 1:
        num_classes = args.pfc_classes
        config.pfc = PfcConfig(
            enabled=args.pfc, num_classes=num_classes,
            priority_map=tuple(range(num_classes)),
            headroom_bytes=args.pfc_headroom)
    return config


def _export_traces(results, args: argparse.Namespace) -> None:
    """Write the recorded traces of a result list as JSONL (``--trace``).

    Sweep results arrive in config order whatever ``--jobs`` is, so
    multi-run trace files are deterministic: per-run JSONL blocks
    concatenate in run order.
    """
    traces = [result.trace for result in results
              if result.trace is not None]
    if not traces:
        return
    from repro.trace.export import write_jsonl
    lines = write_jsonl(traces, args.trace)
    message = (f"trace: wrote {lines} JSONL lines ({len(traces)} run(s)) "
               f"to {args.trace}")
    overflowed = [data for data in traces
                  if data.dropped_events or data.dropped_samples]
    if overflowed:
        # A full ring buffer discards its oldest records: say so, and
        # say what part of each run the file still covers.
        message += (
            f" - RING BUFFERS OVERFLOWED, oldest records dropped: "
            f"{sum(data.dropped_events for data in overflowed)} events and "
            f"{sum(data.dropped_samples for data in overflowed)} samples ("
            + "; ".join(_retained_span(data) for data in overflowed)
            + "); " + "; ".join(_overflow_remedies(overflowed)))
    print(message, file=sys.stderr)


def _overflow_remedies(overflowed) -> List[str]:
    """What would keep each overflowed ring whole: only fewer records
    do, and the sampler's period sets none of the event ring's."""
    remedies = []
    if any(data.dropped_events for data in overflowed):
        packet = any(data.config.packets for data in overflowed
                     if data.dropped_events)
        remedies.append("events: shorten the run"
                        + (" or use --trace-level flow" if packet else ""))
    if any(data.dropped_samples for data in overflowed):
        remedies.append("samples: raise --sample-us or shorten the run")
    return remedies


def _retained_span(data) -> str:
    """``seed=N: events kept A-B ms, samples kept C-D ms`` for one trace."""
    from repro.sim.units import MILLISECOND

    end_ms = data.meta.get("sim_time_ns", 0) / MILLISECOND
    kept = []
    for name, log in (("events", data.events), ("samples", data.samples)):
        first = next(iter(log), None)
        if first is not None:
            kept.append(f"{name} kept {first[1] / MILLISECOND:.3f}-"
                        f"{end_ms:.3f} ms")
    return f"seed={data.meta.get('seed')}: " + ", ".join(kept)


def _cmd_run(argv: List[str]) -> int:
    from repro.checkpoint.config import CheckpointError
    from repro.experiments.runner import run_experiment
    from repro.experiments.sweeps import format_table
    from repro.sim.units import MILLISECOND

    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        # Malformed directive or a flag that would silently do nothing:
        # a usage error, reported in one line with the argparse exit code.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    print(f"running {args.system}+{args.transport} on "
          f"{config.topology!r} for "
          f"{config.sim_time_ns // MILLISECOND} ms simulated ...",
          file=sys.stderr)
    if config.faults:
        print("fault scenario: "
              + "; ".join(spec.describe() for spec in config.faults),
              file=sys.stderr)
    try:
        result = run_experiment(config)
    except KeyboardInterrupt:
        print("run: interrupted" + (
            "; re-run the same command to resume from the last checkpoint"
            if config.checkpoint is not None else ""), file=sys.stderr)
        return 130
    except CheckpointError as exc:
        # A stale or foreign file on the managed path (e.g. written by
        # different source): never silently restart.
        print(f"repro: error: {exc} — delete it to start over",
              file=sys.stderr)
        return 1
    row = result.report().row()
    row["seed"] = config.seed
    print(format_table([row]))
    drops = result.metrics.counters.drops
    if drops:
        print("\ndrops by reason: "
              + ", ".join(f"{reason}={count}"
                          for reason, count in sorted(drops.items())))
    _export_traces([result], args)
    return 0


def _cmd_sweep(argv: List[str]) -> int:
    from repro.experiments.config import ALL_SYSTEMS
    from repro.experiments.sweeps import format_table
    from repro.runtime.policy import SupervisorPolicy
    from repro.runtime.supervisor import SweepSupervisor

    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run a systems x seeds grid under the crash-tolerant "
                    "supervisor and print one row per point (the sweep "
                    "fans out with --jobs; crashed or stuck points are "
                    "retried, and --journal/--resume checkpoint the "
                    "sweep across interruptions).")
    parser.add_argument("--systems", default="ecmp,drill,dibs,vertigo",
                        help="comma-separated systems (default: the four "
                             "compared in the paper)")
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="seeds per system (seed..seed+N-1)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default REPRO_JOBS, else "
                             "serial; 0 = all CPUs)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="append every completed point to a JSONL "
                             "journal at PATH (start fresh)")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="resume from a journal written by --journal: "
                             "completed points are reloaded (digests "
                             "verified), only missing ones run")
    parser.add_argument("--run-timeout", type=float, default=None,
                        metavar="SECONDS", dest="run_timeout",
                        help="per-attempt wall-clock deadline; an overdue "
                             "run is SIGKILLed and retried (from its last "
                             "checkpoint, with --checkpoint-every), then "
                             "classified 'timeout' (default none)")
    parser.add_argument("--max-retries", type=int, metavar="N",
                        dest="max_retries",
                        default=SupervisorPolicy.max_retries,
                        help="retries per point for crashes/timeouts/"
                             "transient errors (default %(default)s)")
    _add_experiment_arguments(parser)
    args = parser.parse_args(argv)
    systems = [name.strip() for name in args.systems.split(",")
               if name.strip()]
    unknown = [name for name in systems if name not in ALL_SYSTEMS]
    if unknown:
        print(f"unknown system(s) {unknown}; choose from "
              f"{list(ALL_SYSTEMS)}", file=sys.stderr)
        return 2
    if args.seeds < 1:
        print("--seeds must be >= 1", file=sys.stderr)
        return 2
    base_seed = args.seed
    configs = []
    try:
        for system in systems:
            for seed in range(base_seed, base_seed + args.seeds):
                args.system = system
                args.seed = seed
                configs.append(config_from_args(args))
        policy = SupervisorPolicy(max_retries=args.max_retries,
                                  run_timeout_s=args.run_timeout)
        supervisor = SweepSupervisor(configs, jobs=args.jobs, policy=policy,
                                     journal=args.journal,
                                     resume=args.resume)
    except ValueError as exc:
        # Malformed --fault directive, REPRO_JOBS/--jobs, a supervision
        # knob, or a journal that cannot be used as asked: a usage
        # error, one line, exit status 2, before any point runs.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    print(f"sweeping {len(systems)} system(s) x {args.seeds} seed(s) = "
          f"{len(configs)} run(s) ...", file=sys.stderr)
    report = supervisor.run()
    print(format_table(report.rows()))
    manifest = report.manifest()
    summary = (f"sweep: {manifest['ok']}/{manifest['points']} point(s) ok"
               + (f", {manifest['resumed']} resumed from journal"
                  if manifest["resumed"] else "")
               + f" in {report.wall_s:.1f}s")
    print(summary, file=sys.stderr)
    unread = []
    if manifest["stale_payloads"]:
        unread.append(f"{manifest['stale_payloads']} journaled results "
                      f"could not be read under this code and were re-run")
    if manifest["skipped_lines"]:
        unread.append(f"{manifest['skipped_lines']} unreadable journal "
                      f"line(s) were skipped")
    if unread:
        print("sweep: " + "; ".join(unread), file=sys.stderr)
    for failure in manifest["failures"]:
        print(f"sweep: {failure['status']}: {failure['system']} "
              f"seed={failure['seed']} after {failure['attempts']} "
              f"attempt(s): {failure['error']}", file=sys.stderr)
    if report.interrupted and report.journal_path:
        print(f"sweep: interrupted; resume with "
              f"--resume {report.journal_path}", file=sys.stderr)
    _export_traces([result for result in report.results
                    if result is not None], args)
    if report.interrupted:
        return 130
    return 0 if report.ok else 1


def _cmd_trace_view(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace-view",
        description="Summarize, validate, or convert a JSONL trace file "
                    "recorded with --trace.")
    parser.add_argument("path", help="JSONL trace file")
    parser.add_argument("--validate", action="store_true",
                        help="check every line against the trace schema; "
                             "exit 1 and list problems if any")
    parser.add_argument("--chrome", default=None, metavar="OUT",
                        help="convert to Chrome trace_event JSON at OUT")
    args = parser.parse_args(argv)
    from repro.trace.export import (
        convert_jsonl_to_chrome,
        summarize_file,
        validate_file,
    )
    try:
        if args.validate:
            problems = validate_file(args.path)
            if problems:
                for problem in problems:
                    print(problem, file=sys.stderr)
                print(f"{args.path}: {len(problems)} problem(s)",
                      file=sys.stderr)
                return 1
            print(f"{args.path}: valid", file=sys.stderr)
        print(summarize_file(args.path))
        if args.chrome:
            count = convert_jsonl_to_chrome(args.path, args.chrome)
            print(f"wrote {count} Chrome trace events to {args.chrome}",
                  file=sys.stderr)
    except (OSError, ValueError) as exc:
        # A missing file or a line that is not a trace record.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        command, rest = argv[0], argv[1:]
        if command == "run":
            return _cmd_run(rest)
        if command == "sweep":
            return _cmd_sweep(rest)
        if command == "lint":
            from repro.analysis.driver import main as lint_main
            return lint_main(rest)
        if command == "trace-view":
            return _cmd_trace_view(rest)
    print(f"repro: error: expected a subcommand ({' | '.join(SUBCOMMANDS)}); "
          f"try `python -m repro run --help`", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
