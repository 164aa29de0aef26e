"""Supervised sweep semantics: parity, retry, fail-fast, deadlines.

The supervisor must be invisible when nothing goes wrong — identical
digests and ordering to the plain executor, serial or pooled — and must
classify and bound every way a run can go wrong: transient exceptions
retry with backoff, deterministic failures fail fast, worker deaths
rebuild the pool, and stuck runs hit the watchdog deadline.

The failure-injecting runners are module-level (picklable into pool
workers); flaky ones coordinate through flag files under a directory
named by the ``REPRO_TEST_FLAG_DIR`` environment variable, which pool
workers inherit.
"""

import json
import os
import time

import pytest

from repro.experiments import run_many
from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import run_digest, sweep_digest
from repro.runtime.supervisor import _run_portable
from repro.experiments.sweeps import format_table
from repro.runtime import SupervisorPolicy, SweepSupervisor, run_supervised
from repro.sim.units import MILLISECOND

FAST_BACKOFF = {"backoff_base_s": 0.02, "backoff_cap_s": 0.1}


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
    policy = SupervisorPolicy(max_retries=2, **FAST_BACKOFF)
    report = run_supervised(_configs(2), jobs=jobs, policy=policy,
                            runner=_flaky_once)
    assert report.ok
    assert [o.attempts for o in report.outcomes] == [2, 2]
    reference = [run_digest(r) for r in run_many(_configs(2), jobs=1)]
    assert [run_digest(r) for r in report.results] == reference


def test_worker_death_rebuilds_pool_and_retries(flag_dir):
    policy = SupervisorPolicy(max_retries=2, **FAST_BACKOFF)
    report = run_supervised(_configs(2), jobs=2, policy=policy,
                            runner=_crash_once)
    assert report.ok
    assert all(o.attempts >= 2 for o in report.outcomes)
    reference = [run_digest(r) for r in run_many(_configs(2), jobs=1)]
    assert [run_digest(r) for r in report.results] == reference


# -- deterministic failures fail fast ------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_identical_failure_twice_stops_retrying(jobs):
    policy = SupervisorPolicy(max_retries=5, **FAST_BACKOFF)
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
    policy = SupervisorPolicy(max_retries=1, run_timeout_s=0.5,
                              **FAST_BACKOFF)
    report = run_supervised(_configs(1), jobs=1, policy=policy,
                            runner=_sleep_forever)
    (outcome,) = report.outcomes
    assert outcome.status == "timeout"
    assert outcome.attempts == 2
    assert "exceeded" in outcome.error
    assert report.profile.get("runtime.timeout", 0) > 0


# -- degraded report surface ---------------------------------------------------


def test_degraded_report_rows_manifest_and_table(flag_dir):
    policy = SupervisorPolicy(max_retries=0, **FAST_BACKOFF)
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
                            policy=SupervisorPolicy(max_retries=5,
                                                    **FAST_BACKOFF),
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
    """Seed 1 fails once and backs off; seed 2 completes and stops the
    sweep, so seed 1 is cut off after one charged attempt."""
    journal = str(tmp_path / "j.jsonl")
    box = {}
    box["sup"] = SweepSupervisor(
        _configs(2), jobs=1, journal=journal, runner=_fail_seed_one,
        policy=SupervisorPolicy(max_retries=2, backoff_base_s=60,
                                backoff_cap_s=60),
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
