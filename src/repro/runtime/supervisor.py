"""The one sweep executor: crash-tolerant supervised execution.

:class:`SweepSupervisor` is the only thing in ``src/`` that builds a
process pool.  Every attempt of every point goes through one
submit/complete loop, and what happens when an attempt ends is decided
by one pure function, :func:`transition` (its table, and the crash,
deadline, retry and interrupt handling around it, are in DESIGN.md,
"Runtime supervision").  Every terminal outcome is one
:class:`RunOutcome` — the journal line, the failure-manifest row and
what ``--resume`` reads back.

A pool is kept one attempt ahead of its workers: each worker runs one
point with the next already queued behind it, so it never idles while
its result travels back and the next config comes out (the ledger's
sweep-dispatch on 2 CPUs: 6-9 % less wall per simulated second).  An
attempt *starts* when a worker takes it — at submit, or when the
completion ahead of it is settled — and only a started attempt has a
deadline, is charged its wall time, or is charged for a broken pool: a
queued one lost with its pool never ran and requeues free.

Supervision is zero-cost when idle: a serial sweep with no deadline
drives the same loop with each run executed inline and completed
immediately — no pool, no deadline scan, no threads.
:func:`repro.experiments.parallel.run_many` is this executor under the
strict policy (no retries, no journal, no deadline).  Results are always
**portable** (:meth:`RunResult.portable`) — identical digests, no live
network — whether they ran inline, in a worker, or came from a journal.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

# Pool workers fork from this process: every module a point's config
# may name, which a run imports only where it builds that part (the
# system's policy and host components, the generators, the optional
# subsystems, the checkpoint store, the sanitizer's check), is compiled
# here once instead of in every worker of every pool.
import repro.checkpoint.store
import repro.core.marking
import repro.core.ordering
import repro.core.scheduler
import repro.faults.injector
import repro.forwarding.dibs
import repro.forwarding.drill
import repro.forwarding.ecmp
import repro.forwarding.letflow
import repro.forwarding.pabo
import repro.forwarding.vertigo
import repro.net.fidelity
import repro.net.pfc
import repro.trace.sampler
import repro.trace.tracer
import repro.workload.coflow
import repro.workload.incast
from repro.analysis import sanitize as _sanitize
from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import config_digest, run_digest, sweep_digest
from repro.experiments.parallel import resolve_jobs
from repro.experiments.report import placeholder_row
from repro.experiments.runner import RunResult, run_experiment
from repro.runtime.journal import SweepJournal, decode_result, encode_result
from repro.runtime.policy import RUN_STATUSES, SupervisorPolicy

Runner = Callable[[ExperimentConfig], RunResult]


def _worker_init(sanitize_on: bool) -> None:
    """Pool initializer: clean signal disposition + sanitizer state.

    Forked workers inherit the supervisor's SIGINT/SIGTERM trap.  SIGINT
    is ignored (the supervisor owns interrupt handling and reaps workers
    itself); SIGTERM is reset to its default, so a SIGTERMed worker dies
    like a SIGKILLed one instead of raising into its task.  The
    supervisor's sanitizer state is installed and exported as
    ``REPRO_SANITIZE``, so it holds whatever the pool start method and
    for anything the worker itself spawns.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.environ["REPRO_SANITIZE"] = "1" if sanitize_on else "0"
    _sanitize.set_enabled(sanitize_on)


def _run_portable(config: ExperimentConfig) -> RunResult:
    """The default task: run one experiment, return a picklable result."""
    return run_experiment(config).portable()


@dataclass
class RunOutcome:
    """One sweep point's record: its terminal classification.

    The fields down to ``system`` are the record, and every view of
    a point is built from them: :meth:`row` is the failure manifest's
    row, :meth:`line` the journal line (the record plus the result's run
    digest, payload and checkpoint lineage) and :meth:`from_line` its
    inverse.  The fields after it are what this process holds.
    """

    index: int
    digest: str                      # config digest
    status: str                      # one of RUN_STATUSES
    attempts: int = 0                # charged attempts
    wall_s: float = 0.0              # wall time of the charged attempts
    error: Optional[str] = None
    #: The point's seed and system, taken from ``config`` when given.
    seed: Optional[int] = None
    system: Optional[str] = None
    # -- not recorded ----------------------------------------------------
    config: Optional[ExperimentConfig] = None
    result: Optional[RunResult] = None
    #: True when the result was reloaded from a journal, not re-run.
    resumed: bool = False
    #: ``run_digest(result)`` once the journal line or resume needed it.
    run_digest: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in RUN_STATUSES:
            raise ValueError(f"unknown run status {self.status!r}; "
                             f"choose from {RUN_STATUSES}")
        if self.config is not None:
            self.seed = self.config.seed
            self.system = self.config.system.name

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def row(self) -> Dict[str, object]:
        """The record: one failure-manifest row, the core of a line."""
        return {name: getattr(self, name) for name in _RECORD}

    def line(self) -> Dict[str, object]:
        """The journal line: the record plus the result's run digest,
        payload and checkpoint lineage (None without a result)."""
        result = self.result
        if result is not None and self.run_digest is None:
            self.run_digest = run_digest(result)
        return {**self.row(), "run_digest": self.run_digest,
                "payload": None if result is None else encode_result(result),
                "checkpoint": None if result is None else result.checkpoint}

    @classmethod
    def from_line(cls, line: Dict[str, object]) -> "RunOutcome":
        """The inverse of :meth:`line`.  A key the line lacks (a line
        written by older code) takes its default; one this code does not
        know is ignored."""
        payload = line.get("payload")
        return cls(**{name: line[name] for name in _RECORD if name in line},
                   run_digest=line.get("run_digest"),
                   result=decode_result(payload) if payload else None)


#: The recorded fields of :class:`RunOutcome`, in declaration order.
_RECORD = tuple(f.name for f in fields(RunOutcome)
                if f.name not in ("config", "result", "resumed",
                                  "run_digest"))


@dataclass
class SweepReport:
    """Everything a supervised sweep produced, losses included.

    ``outcomes`` has exactly one entry per submitted config, in sweep
    order; points that never completed (failed permanently, or were cut
    off by an interrupt) carry ``result=None`` and a non-``ok`` status.
    """

    outcomes: List[RunOutcome]
    interrupted: bool = False
    wall_s: float = 0.0
    #: Journal file these outcomes were appended to, or None.
    journal_path: Optional[str] = None
    #: Journaled ``ok`` results that could not be read back under this
    #: code on resume; their points were re-run.
    stale_payloads: int = 0
    #: Journal lines skipped on resume: not a JSON object with a digest.
    skipped_lines: int = 0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def results(self) -> List[Optional[RunResult]]:
        """Per-point results in sweep order (None for missing points)."""
        return [outcome.result for outcome in self.outcomes]

    def failures(self) -> List[RunOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def manifest(self) -> Dict[str, object]:
        """Structured failure manifest (CLI, benches, format_table)."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return {
            "points": len(self.outcomes),
            "ok": counts.get("ok", 0),
            "resumed": sum(1 for o in self.outcomes if o.resumed),
            "stale_payloads": self.stale_payloads,
            "skipped_lines": self.skipped_lines,
            "interrupted": self.interrupted,
            "counts": counts,
            "failures": [outcome.row() for outcome in self.failures()],
        }

    def rows(self) -> List[Dict[str, object]]:
        """Summary-table rows; missing points render explicitly.

        When every point completed this matches the historical
        ``[result.row() for result in results]`` (plus ``seed``); any
        failure adds a ``status`` column to every row and emits
        placeholder rows for the missing points instead of crashing the
        table.
        """
        degraded = not self.ok
        rows = []
        for outcome in self.outcomes:
            row = outcome.result.row() if outcome.ok \
                else placeholder_row(outcome.config, outcome.status)
            row["seed"] = outcome.seed
            if outcome.ok and degraded:
                row["status"] = "ok"
            rows.append(row)
        return rows

    def sweep_digest(self) -> str:
        """Order-sensitive digest over the whole sweep.

        Completed points contribute their run digest (the one their
        record holds, when journaling or resume computed it); missing
        points contribute a ``!<status>`` marker (so a degraded sweep can
        never collide with a complete one).
        """
        return sweep_digest([
            (outcome.run_digest or outcome.result) if outcome.ok
            else f"!{outcome.status}"
            for outcome in self.outcomes
        ])


#: How one attempt of one sweep point can end: it returned a result;
#: the runner raised; or the worker died (a crash, or the deadline's
#: SIGKILL) and took the pool with it.
ENDINGS = ("ok", "raised", "pool_broken")


class Step(NamedTuple):
    """What the supervisor does with a point after one attempt of it: a
    step with a ``status`` finishes it, one without runs it again."""

    #: The attempt and its wall time count against the point: a retry,
    #: unlike a free requeue.
    charged: bool
    status: Optional[str] = None
    #: Error text of a failed point: a ``str.format`` template over
    #: ``attempts``, ``timeout`` (seconds) and ``signature``.
    error: Optional[str] = None


_RETRY = Step(charged=True)
_REQUEUE = Step(charged=False)


def transition(ending: str, *, timed_out: bool, collateral: bool,
               exhausted: bool, repeated: bool) -> Step:
    """The supervisor's whole failure policy, as a pure function.

    ``timed_out``: the deadline scan flagged this attempt as overdue.
    ``collateral``: a kill sweep (aimed at some run) happened while this
    attempt was in flight.  ``exhausted``: charging this attempt takes
    the point past ``max_retries``.  ``repeated``: the runner raised the
    same exception as on the point's previous charged failure.

    Free requeues are bystanders of a kill aimed at another run (their
    checkpoint, if any, preserves their progress); they alone are not
    charged.
    """
    if ending == "ok":
        return Step(True, "ok")
    if timed_out:
        if not exhausted:
            # A checkpointed retry auto-resumes, so the deadline bounds
            # *incremental* progress per attempt.
            return _RETRY
        return Step(True, "timeout",
                    "exceeded --run-timeout {timeout:g}s "
                    "({attempts} attempt(s))")
    if ending == "pool_broken":
        if collateral:
            return _REQUEUE
        if not exhausted:
            return _RETRY
        return Step(True, "crashed",
                    "worker process died ({attempts} attempt(s))")
    if repeated:
        return Step(True, "failed",
                    "{signature} (failed identically twice; not retrying)")
    if not exhausted:
        return _RETRY
    return Step(True, "failed", "{signature}")


def _ending(exc: Optional[BaseException]) -> str:
    if exc is None:
        return "ok"
    if isinstance(exc, BrokenProcessPool):
        return "pool_broken"
    return "raised"


@dataclass
class _Point:
    """Everything the supervisor knows about one pending sweep point."""

    index: int
    attempts: int = 0                  # charged attempts so far
    wall_s: float = 0.0                # wall time of the charged attempts
    signature: Optional[str] = None    # last charged exception


@dataclass
class _Flight:
    """One submitted, not-yet-completed attempt of a point."""

    point: _Point
    kills_at_submit: int                   # kill sweeps seen so far
    #: The pool it ran in (None inline): a pool's futures fail together,
    #: and only the first of them may tear that pool down.
    pool: Optional[ProcessPoolExecutor] = None
    #: When it left the pool's queue for a worker; None while queued.
    started: Optional[float] = None
    deadline: float = math.inf             # math.inf = no deadline
    timed_out: bool = False                # overdue: its worker was killed

    def start(self, now: float, timeout_s: Optional[float]) -> None:
        """A worker took this attempt: its wall time and its deadline
        run from ``now``."""
        self.started = now
        if timeout_s is not None:
            self.deadline = now + timeout_s


class SweepSupervisor:
    """Run a config list to completion despite crashes and hung runs.

    The journal is opened (``journal=``) or read back (``resume=``) here,
    so a bad journal path is a :class:`JournalError` before any point
    runs.
    """

    def __init__(self, configs: Iterable[ExperimentConfig], *,
                 jobs: Optional[int] = None,
                 policy: Optional[SupervisorPolicy] = None,
                 journal: Optional[str] = None,
                 resume: Optional[str] = None,
                 runner: Optional[Runner] = None,
                 on_outcome: Optional[Callable[[RunOutcome], None]] = None
                 ) -> None:
        self.configs = list(configs)
        self.policy = policy or SupervisorPolicy()
        self.jobs = resolve_jobs(jobs)
        self.runner: Runner = runner or _run_portable
        self.on_outcome = on_outcome
        if journal is not None and resume is not None:
            raise ValueError("journal and resume are exclusive: start a "
                             "fresh journal or continue one, not both")
        self._digests = [config_digest(config) for config in self.configs]
        self._outcomes: Dict[int, RunOutcome] = {}
        self._journal: Optional[SweepJournal] = None
        if resume is not None:
            self._journal = SweepJournal.resume(resume)
            self._load_resumed()
        elif journal is not None:
            self._journal = SweepJournal.create(journal, len(self.configs))
        self._stop = threading.Event()
        self._interrupt_signum: Optional[int] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        #: Deadlines to enforce: runs go to a pool even when serial.
        self._deadlines = self.policy.run_timeout_s is not None
        #: Kill sweeps performed — tells collateral pool victims from
        #: genuine crashes.
        self._kills = 0

    # -- public controls -------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the sweep to stop at the next safe point (thread-safe)."""
        self._stop.set()

    def worker_pids(self) -> List[int]:
        """PIDs of live pool workers (chaos tests aim their SIGKILLs here)."""
        with self._pool_lock:
            pool = self._pool
            processes = getattr(pool, "_processes", None) if pool else None
            return list(processes or ())

    @property
    def interrupted(self) -> bool:
        return self._interrupt_signum is not None

    # -- the run ---------------------------------------------------------------

    def run(self) -> SweepReport:
        started = time.monotonic()  # noqa: VR002 - harness wall clock
        pending = [_Point(index) for index in range(len(self.configs))
                   if index not in self._outcomes]
        journal = self._journal
        try:
            with self._trap_signals():
                try:
                    if pending:
                        self._run_points(pending)
                except KeyboardInterrupt:
                    self._stop.set()
                    if self._interrupt_signum is None:
                        self._interrupt_signum = signal.SIGINT
            # Anything without a terminal outcome was cut off; it keeps
            # the attempts it was charged.
            for point in pending:
                if point.index not in self._outcomes:
                    self._finish(point, "aborted",
                                 error="interrupted before completion")
        finally:
            if journal is not None:
                journal.close()
        wall_s = time.monotonic() - started  # noqa: VR002 - harness wall clock
        return SweepReport(
            outcomes=[self._outcomes[index]
                      for index in range(len(self.configs))],
            interrupted=self.interrupted or self._stop.is_set(),
            wall_s=round(wall_s, 6),
            journal_path=None if journal is None else journal.path,
            stale_payloads=0 if journal is None else journal.stale_payloads,
            skipped_lines=0 if journal is None else journal.skipped_lines)

    # -- bookkeeping -----------------------------------------------------------

    def _load_resumed(self) -> None:
        for index, digest in enumerate(self._digests):
            outcome = self._journal.completed(digest)
            if outcome is not None:
                self._outcomes[index] = replace(
                    outcome, index=index, config=self.configs[index],
                    resumed=True)

    def _finish(self, point: _Point, status: str, *,
                error: Optional[str] = None,
                result: Optional[RunResult] = None) -> None:
        """Record the terminal outcome of ``point`` (journal, callback)."""
        index = point.index
        outcome = RunOutcome(
            index=index, digest=self._digests[index], status=status,
            attempts=point.attempts, wall_s=round(point.wall_s, 6),
            error=error, config=self.configs[index], result=result)
        self._outcomes[index] = outcome
        if self._journal is not None:
            self._journal.record(outcome)
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    @contextlib.contextmanager
    def _trap_signals(self):
        """SIGINT/SIGTERM → stop flag + KeyboardInterrupt (main thread only).

        The handler records the signal and raises ``KeyboardInterrupt``
        so the loop unwinds to its graceful-stop handling; previous
        handlers are restored on exit.
        """
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        previous = {}

        def handler(signum, frame):
            self._interrupt_signum = signum
            self._stop.set()
            raise KeyboardInterrupt

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, handler)
        try:
            yield
        finally:
            for signum, old in previous.items():
                signal.signal(signum, old)

    # -- the pool --------------------------------------------------------------

    def _ensure_pool(self, remaining: int) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=max(1, min(self.jobs, remaining)),
                    initializer=_worker_init,
                    initargs=(_sanitize.enabled(),))
            return self._pool

    def _signal_workers(self, signum: int) -> None:
        """Send ``signum`` to every live pool worker."""
        for pid in self.worker_pids():
            try:
                os.kill(pid, signum)
            except (ProcessLookupError, PermissionError):
                continue

    def _teardown_pool(self, kill: bool) -> None:
        """Drop the pool and reap its workers before returning.

        ``kill`` (broken pool, interrupt): SIGKILL whatever is still
        alive first: the dead worker may have left the shared queue
        locks held, and a survivor would then block on them forever.
        Waiting for the executor's manager thread means no thread of the
        old pool is alive when the next pool forks.
        """
        if kill:
            self._signal_workers(signal.SIGKILL)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- the loop --------------------------------------------------------------

    def _run_points(self, pending: List[_Point]) -> None:
        """Drive every pending point to a terminal outcome (or a stop).

        One loop for both modes: pooled attempts complete when their
        future does; inline attempts (serial, no deadline) run inside
        :meth:`_submit_ready` and come back as already-completed
        futures.
        """
        policy = self.policy
        queue = deque(pending)
        inflight: Dict[Future, _Flight] = {}
        try:
            while (queue or inflight) and not self._stop.is_set():
                now = time.monotonic()  # noqa: VR002 - harness wall clock
                self._submit_ready(queue, inflight, now)
                if self._deadlines:
                    self._enforce_deadlines(inflight, now)
                done, _ = wait(set(inflight), timeout=0.1,
                               return_when=FIRST_COMPLETED)
                # Settled in submission order, so that a completion has
                # promoted the attempt queued behind it before that
                # attempt's own ending (a broken pool, say) is judged.
                for future in [future for future in inflight
                               if future in done]:
                    flight = inflight.pop(future)
                    point = flight.point
                    timed_out = flight.timed_out
                    now = time.monotonic()  # noqa: VR002 - harness wall clock
                    run_wall = 0.0 if flight.started is None \
                        else now - flight.started
                    try:
                        result, exc = future.result(), None
                    except Exception as caught:
                        result, exc = None, caught
                    ending = _ending(exc)
                    if ending == "pool_broken":
                        if flight.pool is self._pool:
                            self._teardown_pool(kill=True)
                    elif flight.pool is not None \
                            and flight.started is not None:
                        self._promote(inflight, flight.pool, now)
                    signature = None
                    if ending == "raised" and not timed_out:
                        signature = f"{type(exc).__name__}: {exc}"
                    step = transition(
                        ending, timed_out=timed_out,
                        # A queued attempt lost with its pool never ran.
                        collateral=flight.started is None
                        or self._kills > flight.kills_at_submit,
                        exhausted=point.attempts >= policy.max_retries,
                        repeated=signature is not None
                        and signature == point.signature)
                    if step.charged:
                        point.attempts += 1
                        point.wall_s += run_wall
                        point.signature = signature or point.signature
                    if step.status is None:
                        queue.append(point)
                        continue
                    self._finish(
                        point, step.status, result=result,
                        error=step.error and step.error.format(
                            attempts=point.attempts,
                            timeout=policy.run_timeout_s,
                            signature=signature))
        except KeyboardInterrupt:
            self._stop.set()
            raise
        finally:
            # Stopped early: reclaim workers instead of orphaning them.
            self._teardown_pool(kill=bool(inflight) or self._stop.is_set())

    def _submit_ready(self, queue: deque, inflight: Dict[Future, _Flight],
                      now: float) -> None:
        """Fill free slots from the head of the queue: a pool takes two
        attempts per worker, one running and one queued behind it.  An
        attempt starts at submit while its pool has a free worker, else
        when :meth:`_promote` moves it up."""
        pooled = self.jobs > 1 or self._deadlines
        while queue and len(inflight) < (2 * self.jobs if pooled else 1):
            point = queue[0]
            config = self.configs[point.index]
            flight = _Flight(point=point, kills_at_submit=self._kills)
            if pooled:
                pool = flight.pool = self._ensure_pool(
                    len(queue) + len(inflight))
                try:
                    future = pool.submit(self.runner, config)
                except (BrokenProcessPool, RuntimeError):
                    # Pool broke between completions; rebuild and retry
                    # on the next loop iteration.
                    self._teardown_pool(kill=True)
                    return
                running = sum(1 for other in inflight.values()
                              if other.pool is pool
                              and other.started is not None)
                if running < self.jobs:
                    flight.start(now, self.policy.run_timeout_s)
            else:
                flight.started = now
                future = Future()
                try:
                    future.set_result(self.runner(config))
                except Exception as exc:  # classified by transition()
                    future.set_exception(exc)
            queue.popleft()
            inflight[future] = flight

    def _promote(self, inflight: Dict[Future, _Flight],
                 pool: ProcessPoolExecutor, now: float) -> None:
        """A worker of ``pool`` finished an attempt and took the next: the
        oldest attempt queued there (the executor's queues are FIFO)."""
        for flight in inflight.values():
            if flight.pool is pool and flight.started is None:
                flight.start(now, self.policy.run_timeout_s)
                return

    def _enforce_deadlines(self, inflight: Dict[Future, _Flight],
                           now: float) -> None:
        """SIGKILL every worker once any in-flight run is overdue.

        A pool worker cannot be stopped alone without breaking the pool,
        so the kill is a sweep: the crash path rebuilds the pool, charges
        the overdue runs and requeues the rest — running or queued — for
        free.  Only a started attempt has a deadline.  A checkpointed
        run's next attempt resumes from its last epoch.
        """
        overdue = False
        for future, flight in inflight.items():
            if not future.done() and not flight.timed_out \
                    and now >= flight.deadline:
                flight.timed_out = overdue = True
        if overdue:
            self._kills += 1
            self._signal_workers(signal.SIGKILL)


def run_supervised(configs: Iterable[ExperimentConfig], *,
                   jobs: Optional[int] = None,
                   policy: Optional[SupervisorPolicy] = None,
                   journal: Optional[str] = None,
                   resume: Optional[str] = None,
                   runner: Optional[Runner] = None,
                   on_outcome: Optional[Callable[[RunOutcome], None]] = None
                   ) -> SweepReport:
    """Run a sweep under the crash-tolerant supervisor.

    Same ordering and digests as the in-process reference
    (``run_many(jobs=1)``), plus crash recovery, deadlines, bounded
    retry, journaling (``journal=`` path starts one,
    ``resume=`` continues one), and graceful interrupt handling.  See
    :class:`SweepSupervisor` for the mechanics and :class:`SweepReport`
    for the result surface.
    """
    return SweepSupervisor(
        configs, jobs=jobs, policy=policy, journal=journal, resume=resume,
        runner=runner, on_outcome=on_outcome).run()
