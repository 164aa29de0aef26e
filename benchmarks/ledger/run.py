#!/usr/bin/env python3
"""The ledger benchmark: host speed of the simulator, end to end and by layer.

    python benchmarks/ledger/run.py [--workload W] [--seed N]
        [--seconds S | --repeats N] [--spans] [--micro] [--quick] [--out F]
    python benchmarks/ledger/run.py compare A.json B.json
    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

The first form prints every metric by name with its unit, checks the
runs' outputs, and exits non-zero if any operation failed.  The last
form is the benchmark driver's contract (``BENCHMARK.json``): one
workload, and as the last line of stdout one JSON object — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space (temp files, checkpoints, span samples); inside the
#: checkout, ignored by git.
WORK = ROOT / ".ledger_work"
BASELINE = HERE / "baseline.json"

#: Default measuring time per workload; BENCHMARK.json's ``run_seconds``.
RUN_SECONDS = 10
PROBES = 7
PROBES_QUICK = 3
#: No stage may outlive this (the driver allows a run 180 s in all).
STAGE_TIMEOUT_S = 170

if str(SRC) not in sys.path:
    sys.path.insert(1, str(SRC))

import catalog  # noqa: E402 - needs HERE on sys.path (it is: script dir)
import compare  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME),
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1,
                        help="the only source of randomness (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measure each workload for about this long "
                             f"(default {RUN_SECONDS}; 0 = the minimum "
                             f"number of runs, the --quick default)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="instead of --seconds: this many rotations "
                             "through the workload's sub-seeds")
    parser.add_argument("--spans", action="store_true",
                        help="add the per-layer pass (span ledger, ratios)")
    parser.add_argument("--micro", action="store_true",
                        help="add the isolated ns/op table")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: horizons / 5, minimum repeats; "
                             "never comparable to full results")
    parser.add_argument("--out", help="write the full report as JSON here")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: 0 = end-to-end metrics, "
                             "1 = per-layer metrics, as one JSON line")
    parser.add_argument("--record-baseline", action="store_true",
                        help="rewrite baseline.json from this run "
                             "(full mode, --spans --micro)")
    parser.add_argument("--_stage", dest="stage",
                        choices=("probe", "e2e", "layers", "micro"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--_trace-file", dest="trace_file",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None and args.seconds < 0:
        parser.error("--seconds cannot be negative")
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.seconds is None and args.repeats is None:
        # Quick mode stops at the minimum number of runs.
        args.seconds = 0 if args.quick else RUN_SECONDS
    return args


# -- child side: one stage, findings as the last stdout line ---------------

def run_stage(args: argparse.Namespace) -> int:
    workload = workloads.BY_NAME.get(args.workload)
    if args.stage == "probe":
        out = measure.probe(workload, args.seed, args.quick)
    elif args.stage == "e2e":
        out = measure.e2e(workload, args.seed, seconds=args.seconds,
                          repeats=args.repeats, quick=args.quick)
    elif args.stage == "layers":
        out = measure.layers(workload, args.seed, quick=args.quick,
                             work_dir=str(WORK), trace_path=args.trace_file)
    else:
        import micro
        out = micro.run_all()
    print(measure.dumps(out))
    return 0


# -- parent side ------------------------------------------------------------

class StageError(RuntimeError):
    pass


def spawn(stage: str, args: argparse.Namespace,
          workload: Optional[str] = None,
          extra: Optional[List[str]] = None) -> Dict[str, object]:
    """Run one stage in a fresh interpreter; return its JSON findings.

    The child leads its own process group so a timeout takes its pool
    workers down with it; nothing outlives this call.
    """
    command = [sys.executable, str(HERE / "run.py"), "--_stage", stage,
               "--seed", str(args.seed)]
    if workload is not None:
        command += ["--workload", workload]
    if args.quick:
        command.append("--quick")
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.repeats is not None:
        command += ["--repeats", str(args.repeats)]
    command += extra or []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["TMPDIR"] = str(WORK)
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                             cwd=str(ROOT), text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=STAGE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise StageError(f"stage {stage} ({workload}) exceeded "
                         f"{STAGE_TIMEOUT_S} s") from None
    if child.returncode != 0:
        raise StageError(f"stage {stage} ({workload}) exited "
                         f"{child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise StageError(f"stage {stage} ({workload}) printed nothing")
    return json.loads(lines[-1])


def machine_facts() -> Dict[str, object]:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def load_baseline() -> Dict[str, object]:
    if not BASELINE.exists():
        return {}
    with open(BASELINE) as handle:
        return json.load(handle)


def digest_flag(baseline: Dict[str, object], args: argparse.Namespace,
                workload: str, kind: str, digest: Optional[str]
                ) -> Optional[int]:
    """1 = matches baseline.json, 0 = differs, None = nothing recorded."""
    if baseline.get("seed") != args.seed or digest is None:
        return None
    mode = "quick" if args.quick else "full"
    recorded = baseline.get("digests", {}).get(mode, {}) \
        .get(workload, {}).get(kind)
    if recorded is None:
        return None
    if recorded != digest:
        print(f"\n*** WARNING: {workload} {kind} stats_digest {digest[:16]}… "
              f"differs from the recorded {recorded[:16]}… — the simulator's "
              f"*behaviour* changed (not a failed operation; a perf or "
              f"simplicity change must keep this 1) ***\n", file=sys.stderr)
        return 0
    return 1


def setup_probes(name: str, args: argparse.Namespace,
                 ops: measure.Ops) -> List[Dict[str, float]]:
    probes = []
    for _ in range(PROBES_QUICK if args.quick else PROBES):
        try:
            probes.append(spawn("probe", args, name))
            ops.record(1, [])
        except StageError as exc:
            ops.record(1, [str(exc)])
    return probes


def summary(values: List[float], unit: str) -> Dict[str, object]:
    q1, median, q3 = measure.quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit}


def measure_workload(name: str, args: argparse.Namespace,
                     baseline: Dict[str, object], want_e2e: bool,
                     want_layers: bool) -> Dict[str, object]:
    workload = workloads.BY_NAME[name]
    ops = measure.Ops()
    entry: Dict[str, object] = {"why": workload.why}
    probes = setup_probes(name, args, ops)
    units = {metric.name: metric.unit for metric in catalog.END_TO_END}

    if want_e2e:
        e2e: Dict[str, object] = {}
        if probes:
            e2e["setup_s"] = summary(
                [p["import_s"] + p["build_s"] for p in probes],
                units["setup_s"])
            e2e["setup_s"]["raw_value"] = statistics.median(
                p["raw_s"] for p in probes)
        try:
            found = spawn("e2e", args, name)
        except StageError as exc:
            ops.record(1, [str(exc)])
        else:
            ops.absorb(found["ops"])
            if "wall_s_per_sim_s" in found:
                e2e["wall_s_per_sim_s"] = dict(
                    found["wall_s_per_sim_s"],
                    unit=units["wall_s_per_sim_s"])
            if found["peak_rss_mb"] is not None:
                e2e["peak_rss_mb"] = summary([found["peak_rss_mb"]],
                                             units["peak_rss_mb"])
            cpu_over_wall = found["cpu_over_wall"]
            spread = found.get("repeat_spread_pct")
            slowdown = found["box_slowdown"]
            noisy = (cpu_over_wall is not None
                     and cpu_over_wall < measure.CONTENDED_CPU_OVER_WALL) \
                or (spread is not None
                    and spread > measure.NOISY_SPREAD_PCT) \
                or (slowdown is not None
                    and slowdown > measure.NOISY_BOX_SLOWDOWN)
            entry["diagnostics"] = {
                "runs": found["runs"], "box_slowdown": slowdown,
                "cpu_over_wall": cpu_over_wall, "repeat_spread_pct": spread,
                "verdict": "noisy" if noisy else "ok",
                "digest_matches_recorded": digest_flag(
                    baseline, args, name, "e2e", found.get("stats_digest")),
            }
            entry["stats_digest"] = found.get("stats_digest")
        entry["e2e"] = e2e

    if want_layers:
        WORK.mkdir(exist_ok=True)
        trace_file = str(Path(args.out).with_suffix("")) \
            + f".{name}.spans-trace.json" if args.out \
            else str(WORK / f"{name}.spans-trace.json")
        try:
            found = spawn("layers", args, name,
                          ["--_trace-file", trace_file])
        except StageError as exc:
            ops.record(1, [str(exc)])
        else:
            ops.absorb(found["ops"])
            values = found["values"]
            if probes:
                values["experiments.runner.import_ms"] = 1e3 * \
                    statistics.median(p["import_s"] for p in probes)
                values["experiments.runner.build_ms"] = 1e3 * \
                    statistics.median(p["build_s"] for p in probes)
            values["bench.digest_matches_recorded"] = digest_flag(
                baseline, args, name, "spans", found["stats_digest"])
            entry["per_layer"] = values
            entry["ledger"] = found["ledger"]
            entry["spans_digest"] = found["stats_digest"]

    entry["ops"] = ops.as_dict()
    return entry


def file_fail_share(entry: Dict[str, object]) -> None:
    """Once every stage has reported: failed / attempted operations."""
    ops = entry["ops"]
    fail_share = ops["failed"] / ops["attempted"] if ops["attempted"] else 1.0
    if "e2e" in entry:
        entry["e2e"]["fail_share"] = dict(
            summary([fail_share], catalog.FAIL_SHARE.unit),
            n=ops["attempted"])
    if "per_layer" in entry:
        entry["per_layer"]["bench.fail_share"] = fail_share


# -- printing ---------------------------------------------------------------

def _number(value) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(name: str, entry: Dict[str, object]) -> None:
    print(f"\n== {name} — {entry['why']}")
    for metric, cell in entry.get("e2e", {}).items():
        print(f"  {metric:34s} {_number(cell['value']):>12s} "
              f"{cell['unit']:10s} [q1 {_number(cell['q1'])} "
              f"q3 {_number(cell['q3'])} n {cell['n']}]")
    diagnostics = entry.get("diagnostics")
    if diagnostics:
        print(f"  verdict: {diagnostics['verdict']} "
              f"(runs {diagnostics['runs']}, box slowdown "
              f"{_number(diagnostics['box_slowdown'])}, cpu/wall "
              f"{_number(diagnostics['cpu_over_wall'])}, repeat spread "
              f"{_number(diagnostics['repeat_spread_pct'])}%, digest vs "
              f"recorded {_number(diagnostics['digest_matches_recorded'])})")
    values = entry.get("per_layer")
    ledger = entry.get("ledger")
    if ledger:
        print(f"  -- ledger at {ledger['spans']} spans: untraced "
              f"{ledger['untraced_wall_s']:.3f} s, spans run "
              f"{ledger['spans_wall_s']:.3f} s (reference-box seconds); "
              f"raw self sum {ledger['raw_self_sum_s']:.3f} s of "
              f"{ledger['root_raw_s']:.3f} s raw under Engine.run; adjusted "
              f"sum {ledger['adjusted_sum_s']:.3f} s; span cost x"
              f"{ledger['span_cost_scale']:.2f} in situ")
    for metric in catalog.PER_LAYER:
        if values and metric.name in values:
            print(f"  {metric.name:40s} "
                  f"{_number(values[metric.name]):>12s} {metric.unit}")
    for error in entry["ops"]["errors"]:
        print(f"  FAILED: {error}")


def driver_line(entry: Dict[str, object], trace: int) -> Optional[str]:
    """The contract's result object, or None when a metric is missing."""
    metrics: Dict[str, Dict[str, object]] = {}
    if trace == 0:
        for metric in catalog.END_TO_END:
            cell = entry.get("e2e", {}).get(metric.name)
            if cell is None:
                return None
            metrics[metric.name] = {"value": cell["value"],
                                    "unit": metric.unit}
    else:
        values = entry.get("per_layer")
        if values is None:
            return None
        for metric in catalog.PER_LAYER:
            value = values.get(metric.name)
            if value is None:
                # The contract wants a number: 0 = not on this workload's
                # path; the digest flag keeps 0 for "differs".
                value = -1 if metric.name == \
                    "bench.digest_matches_recorded" else 0
            metrics[metric.name] = {"value": value, "unit": metric.unit}
    ops = entry["ops"]
    return measure.dumps({
        "correct": ops["failed"] == 0 and ops["attempted"] > 0,
        "attempted": max(1, ops["attempted"]), "failed": ops["failed"],
        "metrics": metrics})


def record_baseline(report: Dict[str, object]) -> None:
    baseline = load_baseline()
    digests = baseline.setdefault("digests", {})
    mode = digests.setdefault(report["mode"], {})
    numbers = {}
    for name, entry in report["workloads"].items():
        kinds = mode.setdefault(name, {})
        if entry.get("stats_digest"):
            kinds["e2e"] = entry["stats_digest"]
        if entry.get("spans_digest"):
            kinds["spans"] = entry["spans_digest"]
        numbers[name] = {
            "e2e": {metric: cell["value"]
                    for metric, cell in entry.get("e2e", {}).items()},
            "per_layer": entry.get("per_layer", {})}
    baseline.update({"schema": 1, "seed": report["seed"],
                     "machine": report["machine"]})
    if report["mode"] == "full":
        baseline["numbers"] = numbers
    with open(BASELINE, "w") as handle:
        handle.write(measure.dumps(baseline, indent=1, sort_keys=True))
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: {SRC}/repro not found — the benchmark measures the "
              f"simulator in src/ and needs a full checkout",
              file=sys.stderr)
        return 2
    if args.stage:
        return run_stage(args)

    WORK.mkdir(exist_ok=True)
    driver = args.trace is not None
    want_e2e = not driver or args.trace == 0
    want_layers = args.spans or args.trace == 1
    want_micro = args.micro or args.trace == 1
    names = [args.workload] if args.workload \
        else [workload.name for workload in workloads.WORKLOADS]
    baseline = load_baseline()
    report: Dict[str, object] = {
        "schema": 1, "mode": "quick" if args.quick else "full",
        "seed": args.seed, "seconds": args.seconds,
        "repeats": args.repeats, "machine": machine_facts(),
        "workloads": {}}
    for name in names:
        report["workloads"][name] = measure_workload(
            name, args, baseline, want_e2e, want_layers)
    if want_micro:
        # Workload-independent: filed once, under incast-vertigo when it
        # ran, else under the first workload of this invocation.
        home = "incast-vertigo" if "incast-vertigo" in names else names[0]
        entry = report["workloads"][home]
        entry["ops"]["attempted"] += 1
        try:
            entry.setdefault("per_layer", {}).update(spawn("micro", args))
        except StageError as exc:
            entry["ops"]["errors"].append(str(exc))
            entry["ops"]["failed"] += 1
    for entry in report["workloads"].values():
        file_fail_share(entry)

    print(f"ledger: mode {report['mode']}, seed {args.seed}, "
          f"{report['machine']['nproc']} CPUs, Python "
          f"{report['machine']['python']}")
    for name in names:
        print_workload(name, report["workloads"][name])
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(measure.dumps(report, indent=1, sort_keys=True))
            handle.write("\n")
    if args.record_baseline:
        record_baseline(report)
    failed = sum(entry["ops"]["failed"]
                 for entry in report["workloads"].values())
    if driver:
        line = driver_line(report["workloads"][names[0]], args.trace)
        if line is None:
            print("ledger: no result — a stage produced no measurement",
                  file=sys.stderr)
            return 1
        print(line)
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
