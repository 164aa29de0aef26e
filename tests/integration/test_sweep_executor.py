"""One sweep executor: what ``run_many`` and both supervisor modes share.

``run_many(jobs>1)`` is the supervisor under the strict policy, and the
supervisor's inline (``jobs=1``) and pooled modes drive one loop and one
transition table.  These tests pin what that buys: identical outcomes
across modes, exactly-once strictness, and no worker left behind —
whether the sweep is interrupted or a worker dies holding the pool's
queue locks.
"""

import dataclasses
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.experiments import run_many
from repro.experiments.config import ExperimentConfig
from repro.runtime import SupervisorPolicy, SweepSupervisor, run_supervised
from repro.runtime.supervisor import _run_portable
from repro.sim.units import MILLISECOND
from tests.integration.test_runtime_supervisor import (
    FAST_BACKOFF,
    _always_valueerror,
    _configs,
    _flaky_once,
)


def _config(seed, sim_ms):
    return ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.2, incast_qps=60,
        incast_scale=6, sim_time_ns=sim_ms * MILLISECOND, seed=seed)


# -- run_many is the strict policy ---------------------------------------------


def test_run_many_interrupt_propagates_and_reaps_workers():
    """Ctrl-C during a pooled sweep: KeyboardInterrupt, no orphans."""
    configs = [_config(seed, sim_ms=2000) for seed in (1, 2, 3, 4)]
    interrupt = threading.Timer(0.7, os.kill, (os.getpid(), signal.SIGINT))
    interrupt.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_many(configs, jobs=2)
    finally:
        interrupt.cancel()
    assert multiprocessing.active_children() == []


def test_run_many_attempts_a_failing_point_exactly_once():
    """A config that cannot build fails the sweep, by index, unretried."""
    configs = _configs(3, sim_ms=2)
    broken = configs[1]
    broken.workload = dataclasses.replace(
        broken.workload, warmup_ns=broken.sim_time_ns)  # no window left
    with pytest.raises(RuntimeError, match=(
            r"sweep point 1 failed after 1 attempt\(s\): "
            r"ValueError: warmup .* leave no measurement window")):
        run_many(configs, jobs=2)
    assert multiprocessing.active_children() == []


# -- one table, two modes ------------------------------------------------------


@pytest.mark.parametrize("runner,max_retries", [
    (_flaky_once, 2),          # transient: retried to ok
    (_flaky_once, 0),          # transient, but no retries granted
    (_always_valueerror, 5),   # deterministic: fails fast
])
def test_inline_and_pooled_modes_classify_identically(
        tmp_path, monkeypatch, runner, max_retries):
    policy = SupervisorPolicy(max_retries=max_retries, **FAST_BACKOFF)
    classified = {}
    for jobs in (1, 2):
        flags = tmp_path / f"jobs{jobs}"
        flags.mkdir()
        monkeypatch.setenv("REPRO_TEST_FLAG_DIR", str(flags))
        report = run_supervised(_configs(3, sim_ms=2), jobs=jobs,
                                policy=policy, runner=runner)
        classified[jobs] = [(o.status, o.attempts, o.error)
                            for o in report.outcomes]
    assert classified[1] == classified[2]


# -- a dead worker's queue locks -----------------------------------------------


def _record_pid(config):
    flag = os.path.join(os.environ["REPRO_TEST_FLAG_DIR"],
                        f"pid{config.seed}")
    with open(flag, "w") as handle:
        handle.write(str(os.getpid()))
    return _run_portable(config)


def test_killing_an_idle_worker_strands_no_survivor(tmp_path, monkeypatch):
    """An idle worker holds the call queue's reader lock; SIGKILL it
    while its neighbour is mid-run and that neighbour — which only
    latches the executor's SIGTERM — used to block on the dead lock
    forever, keeping the old pool's manager thread (and interpreter
    exit) waiting on it."""
    monkeypatch.setenv("REPRO_TEST_FLAG_DIR", str(tmp_path))
    configs = [_config(1, sim_ms=1), _config(2, sim_ms=100)]

    def kill_the_idle_worker(outcome):
        if outcome.config.seed == 1:
            time.sleep(0.2)  # let it block inside call_queue.get()
            os.kill(int((tmp_path / "pid1").read_text()), signal.SIGKILL)

    report = SweepSupervisor(
        configs, jobs=2, runner=_record_pid,
        policy=SupervisorPolicy(max_retries=2, **FAST_BACKOFF),
        on_outcome=kill_the_idle_worker).run()
    assert report.ok, report.manifest()
    assert [o.attempts for o in report.outcomes] == [1, 2]
    assert multiprocessing.active_children() == []
