"""Ordered sweep execution: ``run_many`` and job-count resolution.

Every sweep point is an independent, fully seeded simulation, so a sweep
is embarrassingly parallel.  :func:`run_many` returns one
:class:`~repro.experiments.runner.RunResult` per config **in submission
order**, with digests byte-identical whichever way it executed (the
serial-vs-parallel digest integration tests enforce this):

- ``jobs == 1`` (the default) is the in-process reference: a plain loop,
  no pool, no pickling, live ``network``/``engine`` on the results;
- ``jobs > 1`` is the *strict policy* of the one sweep executor,
  :class:`repro.runtime.supervisor.SweepSupervisor` — no retries, no
  journal, no deadline — and raises if any point did not complete;
  results come back as portable copies (``RunResult.portable()``)
  without the live network;
- ``jobs <= 0`` means "one worker per usable CPU".

Concurrency comes from the ``jobs`` argument, the ``REPRO_JOBS``
environment variable, or ``repro sweep --jobs``.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RunResult, run_experiment


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: argument, else ``REPRO_JOBS``, else 1.

    Zero or negative values (from either source) select one worker per
    usable CPU: the ones this process may run on where the platform
    says (``os.sched_getaffinity``), else every CPU.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}") from None
    if jobs <= 0:
        affinity = getattr(os, "sched_getaffinity", None)
        jobs = len(affinity(0)) if affinity else os.cpu_count() or 1
    return jobs


def run_many(configs: Iterable[ExperimentConfig],
             jobs: Optional[int] = None) -> List[RunResult]:
    """Run every config, serially or across processes; ordered results.

    Raises ``RuntimeError`` naming the first point that did not complete
    (each point is attempted exactly once), and ``KeyboardInterrupt`` if
    the sweep was interrupted — in both cases after the workers are
    reaped.
    """
    configs = list(configs)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(configs) <= 1:
        return [run_experiment(config) for config in configs]
    # Imported here: repro.runtime itself imports this module.
    from repro.runtime.policy import SupervisorPolicy
    from repro.runtime.supervisor import run_supervised

    report = run_supervised(configs, jobs=jobs,
                            policy=SupervisorPolicy(max_retries=0))
    if report.interrupted:
        raise KeyboardInterrupt
    if not report.ok:
        first = report.failures()[0]
        raise RuntimeError(
            f"sweep point {first.index} {first.status} after "
            f"{first.attempts} attempt(s): {first.error}")
    return report.results
