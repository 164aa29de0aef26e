"""The measurement stages: set-up probe, end-to-end runs, per-layer pass.

Every stage runs in a fresh subprocess of ``run.py`` (so peak RSS and
import time are the workload's own) and hands its findings back as one
JSON object.  End-to-end numbers are taken with the span wrappers *not*
installed; the per-layer pass installs them for one run only.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import heapq
import json
import math
import multiprocessing
import os
import pickle
import resource
import statistics
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import spans
from workloads import SWEEP_JOBS, Workload

#: Timed runs never number fewer than this (quick mode: 3).
MIN_REPEATS = 5
MIN_REPEATS_QUICK = 3

#: Identical untraced runs the per-layer pass times next to its spans run.
LAYER_REPEATS = 3

#: A row is marked ``noisy`` when a single-process workload's CPU/wall
#: falls below the first (the box was contended), repeats of identical
#: input spread wider than the second, or the box ran slower than the
#: third times the reference while measuring.
CONTENDED_CPU_OVER_WALL = 0.9
NOISY_SPREAD_PCT = 5.0
NOISY_BOX_SLOWDOWN = 1.25


# -- small helpers ----------------------------------------------------------

def canonical(obj):
    """JSON-ready copy: NaN/inf -> None, tuples -> lists, keys -> str."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(key): canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(value) for value in obj]
    return obj


def dumps(obj, **kwargs) -> str:
    """``json.dumps`` that cannot emit invalid JSON (NaN becomes null)."""
    return json.dumps(canonical(obj), allow_nan=False, **kwargs)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread_pct(values: Sequence[float]) -> Optional[float]:
    """IQR as a percentage of the median; None below two values."""
    if len(values) < 2:
        return None
    q1, median, q3 = quartiles(values)
    return 100 * (q3 - q1) / median if median else None


# -- the box's speed --------------------------------------------------------
#
# Host time on this class of box (a small Firecracker guest) is not a
# stable unit: the guest runs 1.5-2.5x slower for 5-60 s at a time, with
# CPU/wall still 0.99 and no steal time in /proc/stat, so a fixed
# workload's wall time can have an IQR of 25% over a few minutes.  Every
# host-time metric is therefore expressed in *reference-box seconds*:
# the measured time divided by how much slower than the reference a
# fixed calibration kernel ran right before and right after the
# measurement.  On a quiet box the divisor is 1.0 +- 0.05.  The raw
# time is kept next to every normalised one.

#: Seconds the kernel takes on the reference box (this repo's CI-class
#: 2-vCPU guest when nobody else is on the host), CPython 3.11.
CALIBRATION_REFERENCE_S = 0.011
CALIBRATION_ROUNDS = 5


def _calibration_kernel() -> float:
    """A fixed pure-Python load — heap, dict and integer traffic, the
    simulator's staple diet — that shares no code with ``repro``.

    The collector is off while it runs: a collection triggered by the
    kernel's own allocations would cost in proportion to whatever the
    last run left alive, and read as a slow box.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: list = []
        table: Dict[int, int] = {}
        push, pop = heapq.heappush, heapq.heappop
        for i in range(20_000):
            push(heap, (i * 7919 % 10007, i))
            table[i] = i
            if i & 1:
                pop(heap)
        total = 0
        for i in range(20_000):
            total += table[i]
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def box_slowdown() -> float:
    """How much slower than the reference box this box runs right now.

    The *mean* of a few rounds: a run's wall time is itself an average
    over the box's fluctuating speed, and on recorded noise the mean
    tracked it better than the best or the median round.
    """
    rounds = [_calibration_kernel() for _ in range(CALIBRATION_ROUNDS)]
    return statistics.mean(rounds) / CALIBRATION_REFERENCE_S


class Timed:
    """One timed region: raw wall, CPU, and the box's slowdown around it."""

    def __init__(self, fn, *args) -> None:
        before = box_slowdown()
        cpu0, t0 = time.process_time(), time.perf_counter()
        self.value = fn(*args)
        self.raw_s = time.perf_counter() - t0
        self.cpu_s = time.process_time() - cpu0
        self.slowdown = (before + box_slowdown()) / 2
        #: Wall seconds on the reference box.
        self.wall_s = self.raw_s / self.slowdown


def peak_rss_mb(pooled: bool) -> float:
    """``ru_maxrss`` (KiB on Linux) of this process — for a pooled
    workload the larger of it and its largest worker.  A pool is shut
    down without waiting, so its workers are first given a moment to be
    reaped: only then does the kernel report them."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        deadline = time.monotonic() + 2.0
        while multiprocessing.active_children() \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


class Ops:
    """Attempted/failed operation tally plus the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, count: int, problems: Sequence[str]) -> None:
        """``count`` operations ran; each entry of ``problems`` is one
        that failed (capped at ``count``)."""
        self.attempted += count
        self.failed += min(count, len(problems))
        self.errors += list(problems)

    def absorb(self, other: Dict[str, object]) -> None:
        """Add a stage's tally (its :meth:`as_dict`) to this one."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.errors += other["errors"]

    def as_dict(self) -> Dict[str, object]:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors[:20]}


# -- digests ----------------------------------------------------------------

def stats_digest(result, include_trace: bool = True) -> str:
    """SHA-256 over every *simulated* statistic of a run.

    ``report().to_dict()`` minus ``profile`` (wall clock) and minus
    ``run.events_executed`` (a simulator-cost count an event-fusing
    optimisation must be free to change), plus the per-flow and
    per-query tuples ``run_digest`` hashes, plus the trace digest when
    the run was traced.
    """
    report = result.report().to_dict()
    del report["profile"]
    del report["run"]["events_executed"]
    metrics = result.metrics
    flows = [(f.flow_id, f.src, f.dst, f.size, f.start_ns, f.end_ns,
              f.bytes_delivered, f.is_incast, f.query_id, f.retransmissions)
             for f in sorted(metrics.flows.values(),
                             key=lambda f: f.flow_id)]
    queries = [(q.query_id, q.client, q.start_ns, q.n_flows, q.flows_done,
                q.end_ns)
               for q in sorted(metrics.queries.values(),
                               key=lambda q: q.query_id)]
    view = {"report": report, "flows": flows, "queries": queries}
    if include_trace and result.trace is not None:
        view["trace"] = result.trace.digest()
    payload = dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def combine(digests: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def run_digests(results: Sequence, include_trace: bool) -> str:
    """One digest for one run's results (a sweep has many)."""
    parts = ["none" if result is None
             else stats_digest(result, include_trace) for result in results]
    return parts[0] if len(parts) == 1 else combine(parts)


# -- stage: set-up probe ----------------------------------------------------

def probe(workload: Workload, seed: int, quick: bool) -> Dict[str, float]:
    """Time to first event.  Must run in an interpreter that has not
    imported ``repro`` yet: the clock starts just before that import.
    The box's speed is read afterwards only, so nothing is warmed up."""
    t0 = time.perf_counter()
    import repro  # noqa: F401 - the import is what is being timed
    from repro.experiments.runner import run_experiment
    t1 = time.perf_counter()
    config = workload.configs(seed, quick=quick)[0]
    run_experiment(dataclasses.replace(config, sim_time_ns=1))
    t2 = time.perf_counter()
    slowdown = box_slowdown()
    return {"import_s": (t1 - t0) / slowdown, "build_s": (t2 - t1) / slowdown,
            "raw_s": t2 - t0, "slowdown": slowdown}


# -- stage: end-to-end ------------------------------------------------------

def _rotation_value(walls: Sequence[Sequence[float]],
                    sim_s: Sequence[float]) -> float:
    """Sum of each sub-seed's median wall over their simulated seconds."""
    return sum(statistics.median(group) for group in walls) / sum(sim_s)


def e2e(workload: Workload, seed: int, *, seconds: float,
        repeats: Optional[int], quick: bool) -> Dict[str, object]:
    """Warm up once, then time runs rotating through the sub-seeds.

    Stops after ``repeats`` rotations when given; otherwise once
    ``seconds`` have passed, every sub-seed has run and the minimum run
    count is met.  ``wall_s_per_sim_s`` sums each sub-seed's *median*
    wall (reference-box seconds) over the sub-seeds' simulated seconds.
    """
    from repro.experiments.digest import sweep_digest

    subseeds = workload.subseeds
    configs = [workload.configs(seed, j, quick=quick)
               for j in range(subseeds)]
    sim_s = [sum(c.sim_time_ns for c in batch) / 1e9 for batch in configs]
    ops = Ops()
    first: Dict[int, str] = {}
    trace_digest: Dict[int, str] = {}

    def checked(subseed: int, results: Sequence, with_trace: bool) -> None:
        problems = list(workload.check(results))
        digest = run_digests(results, include_trace=False)
        if first.setdefault(subseed, digest) != digest:
            problems.append(f"sub-seed {subseed}: stats_digest differs "
                            f"from the first run (nondeterminism)")
        if with_trace and results[0] is not None \
                and results[0].trace is not None:
            traced = results[0].trace.digest()
            if trace_digest.setdefault(subseed, traced) != traced:
                problems.append(f"sub-seed {subseed}: trace digest "
                                f"differs from the first run")
        ops.record(len(results), problems)

    def attempt(subseed: int) -> Optional[Timed]:
        gc.collect()
        try:
            return Timed(workload.execute, configs[subseed])
        except Exception as exc:  # a failed run is a counted operation
            traceback.print_exc()
            ops.record(len(configs[subseed]),
                       [f"{type(exc).__name__}: {exc}"])
            return None

    # Warm-up, untimed: fills caches, compiles lazily, starts a pool once.
    warm = attempt(0)
    pooled_digest = None
    if warm is not None:
        checked(0, warm.value, with_trace=True)
        if workload.pooled and all(r is not None for r in warm.value):
            pooled_digest = sweep_digest(warm.value)
        del warm

    min_runs = max(subseeds, MIN_REPEATS_QUICK if quick else MIN_REPEATS)
    timed: List[List[Timed]] = [[] for _ in range(subseeds)]
    runs = 0
    rss_mb = None
    started = time.perf_counter()
    while True:
        subseed = runs % subseeds
        run = attempt(subseed)
        runs += 1
        if run is not None:
            # The trace digest costs about a run; pair it once, on the
            # first timed run of the warmed-up sub-seed.
            checked(subseed, run.value,
                    with_trace=subseed == 0 and not timed[0])
            run.value = None  # keep the timings, free the results
            timed[subseed].append(run)
        if runs == subseeds:
            # Peak memory after the warm-up and one pass over the inputs:
            # read here, it does not depend on how many repeats the box's
            # speed then allows.
            rss_mb = peak_rss_mb(workload.pooled)
        if repeats is not None:
            if runs >= repeats * subseeds:
                break
        elif runs >= min_runs \
                and time.perf_counter() - started >= seconds:
            break
        if ops.failed and runs >= 2 * min_runs and not any(timed):
            break  # nothing has ever succeeded; do not spin

    if pooled_digest is not None:
        # The warm-up's pooled sweep against the same sweep run in this
        # process alone.  Done last: 48 live results held at once would
        # otherwise be this workload's peak memory.
        serial = workload.execute_in_process(configs[0])
        ops.record(len(serial),
                   [] if sweep_digest(serial) == pooled_digest else [
                       "pooled sweep_digest differs from run_many(jobs=1)"])
        del serial

    every = [run for group in timed for run in group]
    raw_s = sum(run.raw_s for run in every)
    out: Dict[str, object] = {
        "ops": ops.as_dict(), "runs": runs, "peak_rss_mb": rss_mb,
        "box_slowdown": statistics.median(run.slowdown for run in every)
        if every else None,
        # A pooled run's CPU is spent in workers reaped some time later:
        # the ratio says nothing there.
        "cpu_over_wall": sum(run.cpu_s for run in every) / raw_s
        if every and not workload.pooled else None,
    }
    if all(timed):
        walls = [[run.wall_s for run in group] for group in timed]
        value = _rotation_value(walls, sim_s)
        # Quartiles describe *noise*: repeats of identical input, each
        # relative to its own sub-seed's median, rescaled to the value.
        relative = [wall / statistics.median(group)
                    for group in walls if len(group) >= 2 for wall in group]
        q1, _, q3 = quartiles(relative) if relative else (1.0, 1.0, 1.0)
        out["wall_s_per_sim_s"] = {
            "value": value, "q1": value * q1, "q3": value * q3,
            "n": runs, "repeated": len(relative),
            "raw_value": _rotation_value(
                [[run.raw_s for run in group] for group in timed], sim_s)}
        out["repeat_spread_pct"] = spread_pct(relative) if relative else None
        digests = [first[j] for j in range(subseeds)]
        if 0 in trace_digest:
            digests.append(trace_digest[0])
        out["stats_digest"] = combine(digests)
    return out


# -- stage: per-layer -------------------------------------------------------

class _Named:
    """Looks up call counts by function name; remembers what is missing."""

    def __init__(self, ledger: spans.Ledger) -> None:
        self.counts = ledger.call_counts()
        self.missing: List[str] = []

    def calls(self, name: str) -> Optional[int]:
        if name not in self.counts:
            if name not in self.missing:
                self.missing.append(name)
            return None
        return self.counts[name]

    def prefix(self, prefix: str) -> Optional[int]:
        hits = [count for name, count in self.counts.items()
                if name.startswith(prefix)]
        if not hits:
            if prefix not in self.missing:
                self.missing.append(prefix)
            return None
        return sum(hits)


def _ratio(numerator, denominator) -> Optional[float]:
    if numerator is None or denominator is None or not denominator:
        return None
    return numerator / denominator


def ratios(ledger: spans.Ledger, results: Sequence, sim_ms: float
           ) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """The deterministic ratio metrics of one spans run."""
    named = _Named(ledger)
    counters = [r.metrics.counters for r in results]
    hops = sum(c.forwarded for c in counters)
    drops = sum(c.total_drops for c in counters)
    flows = sum(len(r.metrics.flows) for r in results)
    events = sum(r.engine.events_executed for r in results)
    sent = sum(port.packets_sent for r in results
               for port in r.network.tx_ports.values())
    hosts = [host for r in results for host in r.network.hosts]
    marked = sum(h.marking.packets_marked for h in hosts
                 if h.marking is not None)
    buffered = sum(h.ordering.packets_buffered for h in hosts
                   if h.ordering is not None)
    fidelity = [r.fidelity for r in results if r.fidelity is not None]
    pfc = [r.pfc for r in results if r.pfc is not None]
    traces = [r.trace for r in results if r.trace is not None]

    schedule = named.calls("Engine.schedule")
    fast = named.calls("Engine.schedule_fast")
    all_schedules = None if schedule is None or fast is None \
        else schedule + fast
    out = {
        "sim.engine.events_per_sim_ms": events / sim_ms,
        "sim.engine.events_per_hop": _ratio(events, hops),
        "sim.engine.fast_share": _ratio(fast, all_schedules),
        "net.link.tx_per_try":
            _ratio(sent, named.calls("Port._try_transmit")),
        "net.queues.ops_per_hop":
            _ratio(ledger.layer_calls("net.queues"), hops),
        "core.scheduler.ops_per_hop":
            _ratio(ledger.layer_calls("core.scheduler"), hops),
        "core.cuckoo.ops_per_data_pkt":
            _ratio(ledger.layer_calls("core.cuckoo"), marked),
        "core.ordering.reordered_share":
            _ratio(buffered, named.calls("OrderingComponent.on_packet")),
        "forwarding.deflections_per_hop":
            _ratio(sum(c.deflections for c in counters), hops),
        "net.switch.drop_share": _ratio(drops, hops + drops),
        "transport.rtx_per_flow":
            _ratio(sum(c.retransmissions for c in counters), flows),
        "transport.rto_per_sim_ms":
            _ratio(named.calls("FlowSender._on_rto"), sim_ms),
        "net.fidelity.residency_permille":
            statistics.mean(f["analytic_residency_permille"]
                            for f in fidelity) if fidelity else None,
        "net.fidelity.rounds_per_flow":
            _ratio(sum(f["analytic_rounds"] for f in fidelity), flows)
            if fidelity else None,
        "net.fidelity.demotions":
            sum(f["demotions"] for f in fidelity) if fidelity else None,
        "net.pfc.pauses_per_sim_ms":
            sum(p["pause_events"] for p in pfc) / sim_ms,
        "net.pfc.gate_ops_per_hop": _ratio(named.prefix("PfcGate."), hops),
        "trace.records_per_hop":
            _ratio(sum(t.emitted_events for t in traces), hops),
        "trace.samples_per_sim_ms":
            sum(t.emitted_samples for t in traces) / sim_ms,
        "workload.flows_per_sim_ms": flows / sim_ms,
    }
    return out, named.missing


def modelled(results: Sequence) -> Dict[str, Optional[float]]:
    """What the modelled network did (simulated time), next to its cost.
    A sweep reports the mean over the points that have a value."""
    rows = [r.report().row() for r in results]

    def mean_of(key: str, scale: float = 1.0) -> Optional[float]:
        values = [row[key] * scale for row in rows
                  if isinstance(row[key], (int, float))
                  and math.isfinite(row[key])]
        return statistics.mean(values) if values else None

    return {
        "metrics.mean_fct_ms": mean_of("mean_fct_s", 1e3),
        "metrics.p99_fct_ms": mean_of("p99_fct_s", 1e3),
        "metrics.p99_qct_ms": mean_of("p99_qct_s", 1e3),
        "metrics.flow_completion_pct": mean_of("flow_completion_pct"),
        "metrics.query_completion_pct": mean_of("query_completion_pct"),
        "metrics.goodput_gbps": mean_of("goodput_gbps"),
        "metrics.drop_pct": mean_of("drop_pct"),
    }


def _median_ms(samples: Sequence[float]) -> float:
    return 1e3 * statistics.median(samples)


def _own_profile_s(report) -> float:
    """Seconds the points of a supervised sweep spent in their own
    build/run/finalize phases."""
    return sum(sum(outcome.result.profile.values())
               for outcome in report.outcomes if outcome.result is not None)


def _runtime_metrics(configs: list) -> Dict[str, Optional[float]]:
    """Sweep-only: what the pool and the supervisor cost per point."""
    from repro.runtime import SupervisorPolicy, run_supervised

    points = len(configs)
    policy = SupervisorPolicy()
    empty = [dataclasses.replace(c, sim_time_ns=1) for c in configs]
    dispatch = [Timed(lambda: run_supervised(empty, jobs=SWEEP_JOBS,
                                             policy=policy)).wall_s
                for _ in range(LAYER_REPEATS + 1)]
    serial = Timed(lambda: run_supervised(configs, jobs=1, policy=policy))
    pooled = Timed(lambda: run_supervised(configs, jobs=SWEEP_JOBS,
                                          policy=policy))
    return {
        # The first pooled sweep warms the fork path: dropped.
        "runtime.dispatch_ms_per_point": _median_ms(dispatch[1:]) / points,
        # Both terms are raw seconds of the same moment.
        "runtime.serial_overhead_ms_per_point":
            1e3 * (serial.raw_s - _own_profile_s(serial.value))
            / serial.slowdown / points,
        "runtime.pool_efficiency":
            _own_profile_s(pooled.value) / (SWEEP_JOBS * pooled.raw_s),
    }


def _checkpoint_metrics(config, work_dir: str
                        ) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """One run that snapshots itself at half time.  ``write_checkpoint``
    is timed where the runner looks it up, from outside."""
    from repro.checkpoint import CheckpointConfig
    from repro.experiments import runner

    nothing = {"checkpoint.write_ms": None, "checkpoint.payload_kb": None}
    original = getattr(runner, "write_checkpoint", None)
    if original is None:
        return nothing, ["runner.write_checkpoint"]
    writes: List[Tuple[float, int]] = []

    def timed_write(*args, **kwargs):
        t0 = time.perf_counter()
        header = original(*args, **kwargs)
        writes.append((time.perf_counter() - t0, header["payload_bytes"]))
        return header

    runner.write_checkpoint = timed_write
    try:
        with tempfile.TemporaryDirectory(prefix="ckpt-",
                                         dir=work_dir) as directory:
            run = Timed(runner.run_experiment, dataclasses.replace(
                config, checkpoint=CheckpointConfig(
                    every_ns=config.sim_time_ns // 2, directory=directory)))
    finally:
        runner.write_checkpoint = original
    if not writes:
        return nothing, []
    return ({"checkpoint.write_ms":
                 _median_ms([w for w, _ in writes]) / run.slowdown,
             "checkpoint.payload_kb":
                 statistics.median(b for _, b in writes) / 1024}, [])


def layers(workload: Workload, seed: int, *, quick: bool, work_dir: str,
           trace_path: Optional[str]) -> Dict[str, object]:
    """Untraced runs, then one spans run of the same input, in-process.
    All times are reference-box seconds (see :func:`box_slowdown`)."""
    from repro.experiments.digest import run_digest
    from repro.trace.export import write_jsonl

    configs = workload.configs(seed, spans=True, quick=quick)
    sim_ms = sum(c.sim_time_ns for c in configs) / 1e6
    ops = Ops()
    values: Dict[str, Optional[float]] = {}
    missing: List[str] = []

    def run_once(batch: list = configs) -> Timed:
        gc.collect()
        return Timed(workload.execute_in_process, batch)

    def small_ms(fn, results: list, slowdown: float) -> float:
        """Per-point ms of ``fn(result)``, timed from outside."""
        t0 = time.perf_counter()
        for result in results:
            fn(result)
        return 1e3 * (time.perf_counter() - t0) / slowdown / len(results)

    # -- untraced reference: one warm-up, then identical repeats ----------
    warm = run_once().value
    reference = run_digests(warm, include_trace=True)
    reference_plain = run_digests(warm, include_trace=False)
    ops.record(len(warm), workload.check(warm))
    del warm
    runs: List[Timed] = []
    report_ms, digest_ms, pickle_ms, root_s = [], [], [], []
    for repeat in range(LAYER_REPEATS):
        run = run_once()
        results = run.value
        problems = list(workload.check(results))
        if run_digests(results, include_trace=False) != reference_plain:
            problems.append("stats_digest differs from the first run "
                            "(nondeterminism)")
        ops.record(len(results), problems)
        report_ms.append(small_ms(lambda r: r.report().row(), results,
                                  run.slowdown))
        digest_ms.append(small_ms(run_digest, results, run.slowdown))
        pickle_ms.append(small_ms(lambda r: pickle.dumps(r.portable()),
                                  results, run.slowdown))
        # The runner's own phase profile says how much of the run was
        # spent under Engine.run — what the ledger's spans will cover.
        root_s.append(sum(r.profile["run"] for r in results) / run.slowdown)
        runs.append(run)
        if repeat < LAYER_REPEATS - 1:
            # Free the results before the next run: what is alive changes
            # what the garbage collector costs it.
            run.value = None
            del results
    untraced_s = statistics.median(run.wall_s for run in runs)
    untraced_root_s = statistics.median(root_s)
    values.update({
        "metrics.report_ms": statistics.median(report_ms),
        "metrics.digest_ms": statistics.median(digest_ms),
        "runtime.result_pickle_ms": statistics.median(pickle_ms),
        "runtime.result_pickle_kb":
            sum(len(pickle.dumps(r.portable())) for r in results)
            / len(results) / 1024,
        "bench.cpu_over_wall": sum(run.cpu_s for run in runs)
        / sum(run.raw_s for run in runs),
        "bench.wall_iqr_pct": spread_pct([run.wall_s for run in runs]),
        "bench.box_slowdown": statistics.median(run.slowdown for run in runs),
    })

    traces = [r.trace for r in results if r.trace is not None]
    if traces:
        path = os.path.join(work_dir, f"{workload.name}.trace.jsonl")
        export = Timed(write_jsonl, traces, path)
        os.unlink(path)
        values["trace.export_us_per_record"] = \
            1e6 * export.wall_s / export.value
        plain = [dataclasses.replace(c, trace=None) for c in configs]
        plain_s = statistics.median(run_once(plain).wall_s
                                    for _ in range(LAYER_REPEATS))
        values["trace.overhead_pct"] = 100 * (untraced_s / plain_s - 1)
    del results, runs

    # -- the spans run -----------------------------------------------------
    cost = spans.calibrate()
    ledger = spans.Ledger()
    ledger.install()
    try:
        traced = run_once()
    finally:
        ledger.remove()
    results = traced.value
    problems = list(workload.check(results))
    if run_digests(results, include_trace=True) != reference:
        problems.append("the spans run's stats_digest differs from the "
                        "untraced run's (instrumentation perturbed the "
                        "simulation)")
    ops.record(len(results), problems)

    # The wrappers cost more in a live run than on the calibration
    # no-op (cold caches, wider argument tuples), by a factor that is
    # nearly the same on every workload (~1.7-2.1).  Scale the calibrated
    # costs so the slow-down measured under Engine.run is exactly
    # accounted for; what lies outside Engine.run (build, finalize,
    # report) is taken from the untraced run and filed under ``other``.
    # The adjusted self times then sum to the untraced run's wall.
    modelled_ns = sum(ledger.entries) * cost.span_ns \
        + sum(ledger.passthrough()) * cost.pass_ns
    excess_ns = ledger.root_ns - untraced_root_s * traced.slowdown * 1e9
    scale = max(0.0, excess_ns / modelled_ns) if modelled_ns else 0.0
    adjusted = ledger.adjusted_self_ns(spans.SpanCost(
        cost.span_ns * scale, cost.inner_ns * scale, cost.pass_ns * scale))
    # A layer corrected below zero was clamped; share that surplus out so
    # the table still sums to the untraced time under Engine.run.
    closure = untraced_root_s * 1e9 / sum(adjusted) if sum(adjusted) else 0.0
    adjusted = [self_ns * closure for self_ns in adjusted]
    adjusted[-1] += (untraced_s - untraced_root_s) * 1e9
    for layer, self_ns, entered in zip(ledger.layers, adjusted,
                                       ledger.entries):
        values[f"{layer}.self_us_per_sim_ms"] = self_ns / 1e3 / sim_ms
        values[f"{layer}.entries_per_sim_ms"] = entered / sim_ms
    ratio_values, missing_names = ratios(ledger, results, sim_ms)
    values.update(ratio_values)
    missing += missing_names
    values.update(modelled(results))
    spans_s = traced.wall_s
    values.update({
        "bench.span_cost_ns": cost.span_ns,
        "bench.spans_overhead_pct": 100 * (spans_s / untraced_s - 1),
    })
    del results, traced

    if "runtime" in workload.extras:
        values.update(_runtime_metrics(configs))
    if "checkpoint" in workload.extras:
        checkpoint, missing_names = _checkpoint_metrics(configs[0], work_dir)
        values.update(checkpoint)
        missing += missing_names
    values["bench.names_missing"] = len(missing)
    if trace_path is not None:
        ledger.write_chrome_trace(trace_path)

    top = sorted(ledger.call_counts().items(), key=lambda kv: -kv[1])[:25]
    return {
        "ops": ops.as_dict(), "values": values, "stats_digest": reference,
        "sim_ms": sim_ms,
        "ledger": {
            "untraced_wall_s": untraced_s,
            "untraced_root_s": untraced_root_s,
            "spans_wall_s": spans_s,
            "root_raw_s": ledger.root_ns / 1e9,
            "raw_self_sum_s": sum(ledger.self_ns) / 1e9,
            "adjusted_sum_s": sum(adjusted) / 1e9,
            "spans": sum(ledger.entries),
            "passthrough_calls": sum(ledger.passthrough()),
            "span_cost_scale": scale, "names_missing": missing,
            "top_calls_per_sim_ms": {name: count / sim_ms
                                     for name, count in top},
            "trace_file": trace_path,
        },
    }
