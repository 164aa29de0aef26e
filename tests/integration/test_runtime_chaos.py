"""Chaos: killed workers and interrupted sweeps lose nothing.

The hard guarantees of the supervised runtime, enforced end to end:

- SIGKILLing or SIGTERMing a worker mid-sweep loses zero points — the
  supervisor rebuilds the pool, retries the victims, and the final
  results are digest-identical to an undisturbed sweep.
- Aborting a journaled sweep and resuming it (serially or pooled)
  produces a final sweep digest byte-identical to the uninterrupted
  reference.
"""

import os
import signal
import threading

import pytest

from repro.experiments.parallel import run_many
from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import sweep_digest
from repro.runtime.policy import SupervisorPolicy
from repro.runtime.supervisor import SweepSupervisor, run_supervised
from repro.sim.units import MILLISECOND

POLICY = SupervisorPolicy(max_retries=3)


def _configs(n=8, sim_ms=20):
    return [ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.2,
        incast_qps=60, incast_scale=6, sim_time_ns=sim_ms * MILLISECOND,
        seed=seed) for seed in range(1, n + 1)]


def _reference_digest(configs):
    return sweep_digest(run_many(configs, jobs=1))


@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM],
                         ids=["SIGKILL", "SIGTERM"])
def test_killed_worker_loses_no_points(tmp_path, signum):
    """Kill a live worker mid-sweep; every point still completes.  A
    SIGTERMed worker dies at once, exactly like a SIGKILLed one."""
    configs = _configs()
    supervisor = SweepSupervisor(configs, jobs=2, policy=POLICY,
                                 journal=str(tmp_path / "chaos.jsonl"))
    kills = []

    def killer():
        deadline = threading.Event()
        for _ in range(100):  # wait for the pool to come up, then strike
            pids = supervisor.worker_pids()
            if pids:
                deadline.wait(0.3)  # let runs get in flight
                victims = supervisor.worker_pids()
                if victims:
                    try:
                        os.kill(victims[0], signum)
                        kills.append(victims[0])
                    except ProcessLookupError:
                        pass
                return
            deadline.wait(0.05)

    thread = threading.Thread(target=killer, daemon=True)
    thread.start()
    report = supervisor.run()
    thread.join(timeout=10)
    assert kills, "chaos thread never found a worker to kill"
    assert report.ok, report.manifest()
    assert report.sweep_digest() == _reference_digest(configs)
    # At least the killed run(s) needed more than one attempt.
    assert max(outcome.attempts for outcome in report.outcomes) >= 1


def test_abort_and_resume_is_digest_identical(tmp_path):
    """Stop a journaled sweep early; resume completes it bit-exactly."""
    configs = _configs()
    reference = _reference_digest(configs)
    journal = str(tmp_path / "aborted.jsonl")

    completions = []
    supervisor_box = {}

    def stop_after_three(outcome):
        completions.append(outcome)
        if len(completions) >= 3:
            supervisor_box["sup"].request_stop()

    supervisor = SweepSupervisor(configs, jobs=2, policy=POLICY,
                                 journal=journal,
                                 on_outcome=stop_after_three)
    supervisor_box["sup"] = supervisor
    partial = supervisor.run()
    assert partial.interrupted
    manifest = partial.manifest()
    assert 0 < manifest["ok"] < len(configs)
    assert manifest["counts"].get("aborted", 0) > 0
    assert partial.sweep_digest() != reference  # degraded digests differ

    # Resume with a pool AND serially: both complete to the reference.
    pooled = run_supervised(configs, jobs=2, policy=POLICY, resume=journal)
    assert pooled.ok
    assert pooled.sweep_digest() == reference
    assert sum(1 for outcome in pooled.outcomes if outcome.resumed) \
        >= manifest["ok"]

    serial = run_supervised(configs, jobs=1, policy=POLICY, resume=journal)
    assert serial.ok
    assert serial.sweep_digest() == reference
    # Second resume reuses everything the first one completed.
    assert all(outcome.resumed for outcome in serial.outcomes)


def test_sigterm_flushes_journal_for_resume(tmp_path):
    """A SIGTERM mid-sweep leaves a resumable journal behind."""
    configs = _configs(4)
    journal = str(tmp_path / "sigterm.jsonl")

    fired = []

    def sigterm_after_one(outcome):
        if not fired:
            fired.append(outcome)
            os.kill(os.getpid(), signal.SIGTERM)

    partial = run_supervised(configs, jobs=1, policy=POLICY,
                             journal=journal,
                             on_outcome=sigterm_after_one)
    assert partial.interrupted
    assert partial.manifest()["ok"] >= 1

    resumed = run_supervised(configs, jobs=1, policy=POLICY,
                             resume=journal)
    assert resumed.ok
    assert resumed.sweep_digest() == _reference_digest(configs)
