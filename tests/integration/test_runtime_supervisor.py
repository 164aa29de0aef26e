"""Supervised sweep semantics: parity, retry, fail-fast, deadlines.

The supervisor must be invisible when nothing goes wrong — identical
digests and ordering to the plain executor, serial or pooled — and must
classify and bound every way a run can go wrong: transient exceptions
retry, deterministic failures fail fast, worker deaths rebuild the pool,
and stuck runs hit the deadline.

The failure-injecting runners are module-level (picklable into pool
workers); flaky ones coordinate through flag files under a directory
named by the ``REPRO_TEST_FLAG_DIR`` environment variable, which pool
workers inherit.
"""

import json
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.parallel import run_many
from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import run_digest, sweep_digest
from repro.experiments.sweeps import format_table
from repro.runtime.policy import SupervisorPolicy
from repro.runtime.supervisor import (
    SweepSupervisor,
    _run_portable,
    run_supervised,
)
from repro.sim.units import MILLISECOND

def _configs(n=3, sim_ms=5):
    return [ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.2,
        incast_qps=60, incast_scale=6, sim_time_ns=sim_ms * MILLISECOND,
        seed=seed) for seed in range(1, n + 1)]


def _flag_path(config):
    return os.path.join(os.environ["REPRO_TEST_FLAG_DIR"],
                        f"seed{config.seed}")


def _flaky_once(config):
    """Raise a transient error on the first attempt per seed, then run."""
    flag = _flag_path(config)
    if not os.path.exists(flag):
        open(flag, "w").close()
        raise RuntimeError(f"transient glitch (seed {config.seed})")
    return _run_portable(config)


def _crash_once(config):
    """Die like an OOM-killed worker on the first attempt per seed."""
    flag = _flag_path(config)
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)
    return _run_portable(config)


def _always_valueerror(config):
    raise ValueError(f"deterministically broken (seed {config.seed})")


def _sleep_forever(config):
    time.sleep(600)
    return _run_portable(config)


@pytest.fixture
def flag_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_FLAG_DIR", str(tmp_path))
    return tmp_path


# -- healthy-path parity -------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_supervised_matches_run_many(jobs):
    reference = [run_digest(r) for r in run_many(_configs(), jobs=1)]
    report = run_supervised(_configs(), jobs=jobs)
    assert report.ok
    assert not report.interrupted
    assert [run_digest(r) for r in report.results] == reference
    assert report.sweep_digest() == sweep_digest(run_many(_configs(),
                                                          jobs=1))
    assert [o.config.seed for o in report.outcomes] == [1, 2, 3]
    assert all(o.attempts == 1 for o in report.outcomes)


def test_healthy_rows_have_no_status_column():
    report = run_supervised(_configs(2), jobs=1)
    assert all("status" not in row for row in report.rows())


def test_supervised_results_are_portable():
    report = run_supervised(_configs(1), jobs=1)
    assert report.results[0].network is None


# -- transient failures retry --------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_transient_exception_retries_to_ok(flag_dir, jobs):
    policy = SupervisorPolicy(max_retries=2)
    report = run_supervised(_configs(2), jobs=jobs, policy=policy,
                            runner=_flaky_once)
    assert report.ok
    assert [o.attempts for o in report.outcomes] == [2, 2]
    reference = [run_digest(r) for r in run_many(_configs(2), jobs=1)]
    assert [run_digest(r) for r in report.results] == reference


def test_worker_death_rebuilds_pool_and_retries(flag_dir):
    policy = SupervisorPolicy(max_retries=2)
    report = run_supervised(_configs(2), jobs=2, policy=policy,
                            runner=_crash_once)
    assert report.ok
    assert all(o.attempts >= 2 for o in report.outcomes)
    reference = [run_digest(r) for r in run_many(_configs(2), jobs=1)]
    assert [run_digest(r) for r in report.results] == reference


def _crash_seed_one_once(config):
    """Seed 1's first attempt dies; every other attempt runs."""
    if config.seed == 1:
        return _crash_once(config)
    return _run_portable(config)


def test_a_stale_broken_future_leaves_the_replacement_pool_alone(
        flag_dir, monkeypatch):
    """A dead worker fails every future of its pool together.  Handed
    back one per ``wait`` (as a late wake-up can), the later ones are
    stale: tearing down the pool that replaced theirs would charge its
    innocent runs and leave another stale future behind, until every
    point ends ``crashed``."""
    import repro.runtime.supervisor as supervisor_module

    real_wait = supervisor_module.wait

    def one_at_a_time(futures, timeout=None, return_when=None):
        done, not_done = real_wait(futures, timeout=timeout,
                                   return_when=return_when)
        if not done:
            return done, not_done
        first = next(iter(done))
        return {first}, not_done | (done - {first})

    monkeypatch.setattr(supervisor_module, "wait", one_at_a_time)
    report = run_supervised(_configs(6, sim_ms=2), jobs=2,
                            policy=SupervisorPolicy(max_retries=3),
                            runner=_crash_seed_one_once)
    assert [o.status for o in report.outcomes] == ["ok"] * 6
    # The one death charges seed 1 and at most its pool-mate in flight
    # (the parent charged every point once more).
    attempts = [o.attempts for o in report.outcomes]
    assert attempts[0] == 2
    assert sum(attempts) - len(attempts) <= 2, attempts


# -- the pipeline: one attempt queued behind each worker -------------------------

#: How long a napping runner sleeps; a deadline of ``NAP_S / 0.6`` fits
#: one nap, not two.
NAP_S = 0.6


def _nap(config):
    """A run with a known wall time and nothing else (no simulation)."""
    time.sleep(NAP_S)
    return config.seed


def _seed_one_sigkills_its_worker_once(config):
    flag = _flag_path(config)
    if config.seed == 1 and not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(0.1)  # the next point is queued by now
        os.kill(os.getpid(), signal.SIGKILL)
    return config.seed


def test_a_pool_keeps_one_attempt_queued_behind_each_worker(monkeypatch):
    """Two attempts per worker are submitted, never more than the points
    left, and the digests are the in-process reference's."""
    configs = _configs(6, sim_ms=2)
    real_submit = ProcessPoolExecutor.submit
    lock = threading.Lock()
    live, finished, seen = set(), [], []

    def settled(future):
        with lock:
            live.discard(future)

    def spy(pool, fn, *args, **kwargs):
        future = real_submit(pool, fn, *args, **kwargs)
        with lock:
            live.add(future)
            seen.append((len(live), len(configs) - len(finished)))
        future.add_done_callback(settled)
        return future

    monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
    report = run_supervised(configs, jobs=2, on_outcome=finished.append)
    assert report.ok
    assert max(in_flight for in_flight, _ in seen) == 4
    assert all(in_flight <= left for in_flight, left in seen), seen
    assert [run_digest(r) for r in report.results] == \
        [run_digest(r) for r in run_many(configs, jobs=1)]


def test_a_queued_attempt_s_deadline_runs_from_its_start():
    """One worker, two points that each take 0.6 of the deadline: the
    second waits in the pool's queue, and its clock starts when the
    worker takes it, not at submit."""
    policy = SupervisorPolicy(max_retries=0, run_timeout_s=NAP_S / 0.6)
    report = run_supervised(_configs(2), jobs=1, policy=policy, runner=_nap)
    assert [(o.status, o.attempts) for o in report.outcomes] == \
        [("ok", 1), ("ok", 1)]


def test_a_queued_attempt_s_wall_time_excludes_its_wait():
    """Points 3 and 4 wait behind points 1 and 2: each is charged its own
    run, well below the two runs' sum it spans from submit.  (A promoted
    attempt's clock starts when the completion ahead of it is settled,
    a little after its worker took it: no exact lower bound.)"""
    report = run_supervised(_configs(4), jobs=2, runner=_nap)
    assert report.ok
    walls = [o.wall_s for o in report.outcomes]
    assert all(NAP_S / 2 < wall < 1.5 * NAP_S for wall in walls), walls


def test_a_queued_attempt_lost_with_a_killed_worker_is_requeued_free(
        flag_dir):
    """Seed 1 SIGKILLs its worker while seed 2 is queued behind it: the
    death charges seed 1 alone."""
    policy = SupervisorPolicy(max_retries=1, run_timeout_s=60)
    report = run_supervised(_configs(2), jobs=1, policy=policy,
                            runner=_seed_one_sigkills_its_worker_once)
    assert [(o.status, o.attempts) for o in report.outcomes] == \
        [("ok", 2), ("ok", 1)]


# -- deterministic failures fail fast ------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_identical_failure_twice_stops_retrying(jobs):
    policy = SupervisorPolicy(max_retries=5)
    report = run_supervised(_configs(1), jobs=jobs, policy=policy,
                            runner=_always_valueerror)
    (outcome,) = report.outcomes
    assert outcome.status == "failed"
    assert outcome.attempts == 2  # not 6: same signature twice = give up
    assert "deterministically broken" in outcome.error
    assert "not retrying" in outcome.error
    assert not report.ok


# -- deadlines -----------------------------------------------------------------


def test_stuck_run_classified_timeout():
    policy = SupervisorPolicy(max_retries=1, run_timeout_s=0.5)
    report = run_supervised(_configs(1), jobs=1, policy=policy,
                            runner=_sleep_forever)
    (outcome,) = report.outcomes
    assert outcome.status == "timeout"
    assert outcome.attempts == 2
    assert "exceeded" in outcome.error
    # Both killed attempts ran to their deadline, and both are charged.
    assert outcome.wall_s >= 2 * policy.run_timeout_s


# -- degraded report surface ---------------------------------------------------


def test_degraded_report_rows_manifest_and_table(flag_dir):
    policy = SupervisorPolicy(max_retries=0)
    configs = _configs(2)
    report = run_supervised(configs, jobs=1, policy=policy,
                            runner=_flaky_once)
    assert not report.ok
    manifest = report.manifest()
    assert manifest["points"] == 2
    assert manifest["counts"] == {"failed": 2}
    assert len(manifest["failures"]) == 2
    assert manifest["failures"][0]["seed"] == 1
    rows = report.rows()
    assert all(row["status"] == "failed" for row in rows)
    table = format_table(rows)
    assert "failed" in table and "-" in table  # placeholders render
    # A degraded sweep can never digest-collide with a complete one.
    complete = run_supervised(configs, jobs=1)
    assert report.sweep_digest() != complete.sweep_digest()


# -- one record per point --------------------------------------------------------


def _journal_lines(path):
    return [json.loads(text) for text in open(path)][1:]  # header first


def test_manifest_rows_are_the_journal_lines_without_the_result(tmp_path):
    journal = str(tmp_path / "j.jsonl")
    report = run_supervised(_configs(2), jobs=1, journal=journal,
                            policy=SupervisorPolicy(max_retries=5),
                            runner=_always_valueerror)
    lines = _journal_lines(journal)
    for line in lines:
        for key in ("run_digest", "payload", "checkpoint"):
            assert line.pop(key) is None
    assert report.manifest()["failures"] == lines
    assert [row["attempts"] for row in lines] == [2, 2]
    assert [row["seed"] for row in lines] == [1, 2]


def test_lines_with_only_the_older_nine_keys_resume_bit_exactly(tmp_path):
    journal = tmp_path / "j.jsonl"
    configs = _configs(2)
    run_supervised(configs, jobs=1, journal=str(journal))
    header, *lines = journal.read_text().splitlines()
    older = ("digest", "index", "status", "attempts", "wall_s", "error",
             "run_digest", "payload", "checkpoint")
    journal.write_text("\n".join([header] + [
        json.dumps({key: json.loads(line)[key] for key in older})
        for line in lines]) + "\n")
    resumed = run_supervised(configs, jobs=1, resume=str(journal))
    assert all(outcome.resumed for outcome in resumed.outcomes)
    assert [outcome.config.seed for outcome in resumed.outcomes] == [1, 2]
    assert resumed.sweep_digest() == sweep_digest(run_many(configs, jobs=1))


def _fail_seed_one(config):
    if config.seed == 1:
        raise RuntimeError("transient glitch")
    return _run_portable(config)


def test_interrupted_point_keeps_its_charged_attempts(tmp_path):
    """Seed 1 fails once and goes to the back of the queue; seed 2
    completes and stops the sweep, so seed 1 is cut off after one
    charged attempt."""
    journal = str(tmp_path / "j.jsonl")
    box = {}
    box["sup"] = SweepSupervisor(
        _configs(2), jobs=1, journal=journal, runner=_fail_seed_one,
        policy=SupervisorPolicy(max_retries=2),
        on_outcome=lambda outcome: box["sup"].request_stop())
    report = box["sup"].run()
    cut, done = report.outcomes
    assert (cut.status, done.status) == ("aborted", "ok")
    assert cut.attempts == 1 and cut.wall_s > 0
    [row] = report.manifest()["failures"]
    assert row["attempts"] == 1
    assert _journal_lines(journal)[-1]["attempts"] == 1


def test_run_digest_is_computed_once_per_journaled_point_and_never_else(
        tmp_path, monkeypatch):
    import repro.runtime.journal as journal_module
    import repro.runtime.supervisor as supervisor_module

    calls = []

    def counted(result):
        calls.append(result)
        return run_digest(result)

    for module in (journal_module, supervisor_module):
        monkeypatch.setattr(module, "run_digest", counted)
    run_supervised(_configs(2), jobs=1)
    assert calls == []
    report = run_supervised(_configs(2), jobs=1,
                            journal=str(tmp_path / "j.jsonl"))
    report.sweep_digest()
    assert len(calls) == 2
