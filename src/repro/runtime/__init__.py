"""repro.runtime — crash-tolerant supervised sweep execution.

The harness-side counterpart to :mod:`repro.faults` (which makes the
*simulated network* fault-tolerant): a supervisor that survives worker
crashes, SIGKILLs runs that overrun a wall-clock deadline, retries
transient failures with deterministic backoff, journals every terminal
outcome for resume, and degrades gracefully on SIGINT/SIGTERM.  A
checkpointed point (``ExperimentConfig.checkpoint``) resumes each new
attempt from its last whole epoch, so a deadline bounds the progress
one attempt must make, not the whole run.

Quickstart::

    from repro.runtime import SupervisorPolicy, run_supervised

    report = run_supervised(configs, jobs=4,
                            policy=SupervisorPolicy(max_retries=3,
                                                    run_timeout_s=120),
                            journal="sweep.jsonl")  # must be new or empty
    for row in report.manifest()["failures"]:  # one RunOutcome.row() each
        print(row["status"], row["system"], row["seed"], row["error"])

Resume after a crash or Ctrl-C (completed points are read back, not
re-run)::

    report = run_supervised(configs, jobs=4, resume="sweep.jsonl")

A journal path that cannot be used as asked raises :class:`JournalError`
before any point runs.  See DESIGN.md ("Runtime supervision") for the
failure model and the record's keys.
"""

from repro.runtime.journal import JournalError, SweepJournal
from repro.runtime.policy import RUN_STATUSES, SupervisorPolicy
from repro.runtime.supervisor import (
    RunOutcome,
    SweepReport,
    SweepSupervisor,
    run_supervised,
)

__all__ = [
    "RUN_STATUSES",
    "JournalError",
    "RunOutcome",
    "SupervisorPolicy",
    "SweepJournal",
    "SweepReport",
    "SweepSupervisor",
    "run_supervised",
]
