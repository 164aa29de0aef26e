"""Checkpoint/restore end-to-end: kill, resume, and digest identity.

The acceptance bar: a run SIGKILLed mid-flight and resumed from its
checkpoint must produce a digest byte-identical to the same run left
uninterrupted — under packet and hybrid fidelity, serially and through
the pooled supervisor.  Checkpointing itself must be invisible: digests
with checkpointing on equal digests with it off.

Serial kill tests fork a child (fork start method: the child inherits
the built config without pickling) and SIGKILL it once the progress
sidecar shows the simulated clock past the halfway mark.  Pool tests
use a self-killing runner coordinated through ``REPRO_TEST_FLAG_DIR``
flag files, like the supervisor suite.
"""

import collections
import dataclasses
import functools
import multiprocessing
import os
import pickle
import shutil
import signal
import threading
import time
import types

import pytest

from repro.checkpoint import (CheckpointConfig, CheckpointError,
                              RunPreempted, read_progress, store)
from repro.experiments import run_experiment, run_many, runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import config_digest, run_digest
from repro.runtime.supervisor import _run_portable
from repro.runtime import SupervisorPolicy, run_supervised
from repro.faults import parse_faults
from repro.net.fidelity import FidelityConfig
from repro.net.pfc import PfcConfig
from repro.sim.units import MILLISECOND
from repro.trace import TraceConfig, jsonl_lines
from repro.trace import hooks as trace_hooks
from repro.trace import tracer as tracer_mod
from tests.helpers import rewrite_checkpoint_header

FAST_BACKOFF = {"backoff_base_s": 0.02, "backoff_cap_s": 0.1}


def _config(fidelity="packet", seed=7, sim_ms=40):
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.2,
        incast_qps=60, incast_scale=6, sim_time_ns=sim_ms * MILLISECOND,
        seed=seed)
    config.fidelity = dataclasses.replace(config.fidelity, mode=fidelity)
    return config


def _checkpointed(config, directory, every_ms=10):
    config.checkpoint = CheckpointConfig.every_ms(every_ms,
                                                  directory=str(directory))
    return config


def _managed_path(config):
    return config.checkpoint.resolve_path(config_digest(config))


def _reference_digest(fidelity):
    return run_digest(run_experiment(_config(fidelity)))


# -- checkpointing is invisible ------------------------------------------------


@pytest.mark.parametrize("fidelity", ["packet", "hybrid"])
def test_checkpoint_on_digest_equals_checkpoint_off(tmp_path, fidelity):
    plain = run_experiment(_config(fidelity))
    ticked = run_experiment(_checkpointed(_config(fidelity), tmp_path))
    assert run_digest(ticked) == run_digest(plain)
    assert ticked.checkpoint["checkpoints_written"] >= 3
    assert ticked.checkpoint["restored_from_ns"] is None
    # The managed checkpoint is consumed on successful completion.
    assert not os.path.exists(_managed_path(_checkpointed(_config(fidelity),
                                                          tmp_path)))


# -- SIGKILL then restore, serial ----------------------------------------------


def _kill_child_at_half(config, path):
    """Fork a child running ``config``; SIGKILL it past ~50% sim time."""
    half = config.sim_time_ns // 2
    child = multiprocessing.get_context("fork").Process(
        target=run_experiment, args=(config,))
    child.start()
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            progress = read_progress(path)
            if progress and progress["sim_now_ns"] >= half:
                break
            if not child.is_alive():
                raise AssertionError("child finished before the kill — "
                                     "sim too small or checkpoints too slow")
            time.sleep(0.005)
        else:
            raise AssertionError("child never reached the halfway mark")
    finally:
        if child.is_alive():
            os.kill(child.pid, signal.SIGKILL)
        child.join()
    assert child.exitcode == -signal.SIGKILL


@pytest.mark.parametrize("fidelity", ["packet", "hybrid"])
def test_sigkill_then_restore_matches_uninterrupted(tmp_path, fidelity):
    config = _checkpointed(_config(fidelity), tmp_path)
    path = _managed_path(config)
    _kill_child_at_half(config, path)
    assert os.path.exists(path)

    resumed = run_experiment(_checkpointed(_config(fidelity), tmp_path))
    assert resumed.checkpoint["restored_from_ns"] is not None
    assert resumed.checkpoint["restored_from_ns"] > 0
    assert run_digest(resumed) == _reference_digest(fidelity)
    # Consumed after the successful resume: a fresh run starts clean.
    assert not os.path.exists(path)


def test_restore_rejects_foreign_config(tmp_path):
    config = _checkpointed(_config("packet"), tmp_path)
    path = _managed_path(config)
    _kill_child_at_half(config, path)
    # Another config's checkpoint, copied onto this config's managed path.
    other = _checkpointed(_config("packet", seed=8), tmp_path)
    shutil.copy(path, _managed_path(other))
    with pytest.raises(CheckpointError, match="belongs to config"):
        run_experiment(other)


def test_auto_resume_refuses_checkpoint_from_other_code(tmp_path):
    config = _checkpointed(_config("packet"), tmp_path)
    path = _managed_path(config)
    _kill_child_at_half(config, path)
    for generation in (path, path + ".prev"):
        rewrite_checkpoint_header(generation, code="0" * 64)
    # Surfaced, not silently restarted from scratch; the file is kept.
    with pytest.raises(CheckpointError, match="different repro source"):
        run_experiment(_checkpointed(_config("packet"), tmp_path))
    assert os.path.exists(path)


def test_checkpoint_off_run_never_computes_the_fingerprint(monkeypatch):
    def computed():
        raise AssertionError("code_fingerprint() called without checkpoints")

    monkeypatch.setattr(store, "code_fingerprint", computed)
    run_experiment(_config("packet", sim_ms=2))


# -- the pickled graph drops nothing -------------------------------------------


def _attr_names(obj):
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.update(slot for slot in
                     ((slots,) if isinstance(slots, str) else slots)
                     if hasattr(obj, slot))
    return frozenset(names)


def _repro_objects(root):
    """``Counter`` of ``(class, attribute names)`` over every instance of
    a ``repro`` class reachable from ``root`` through attributes,
    containers, partials and bound methods."""
    seen, found, stack = {}, collections.Counter(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj               # pinned: ids stay unique
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset,
                              collections.deque)):
            stack.extend(obj)
        elif isinstance(obj, functools.partial):
            stack.extend((obj.func, obj.args, obj.keywords))
        elif isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
        elif type(obj).__module__.split(".")[0] == "repro":
            names = _attr_names(obj)
            found[type(obj).__qualname__, names] += 1
            stack.extend(getattr(obj, name) for name in names)
    return found


@pytest.mark.parametrize("fidelity", ["packet", "hybrid"])
def test_pickled_world_keeps_every_attribute_of_every_object(fidelity):
    """The guard against a future ``__getstate__``/``__reduce__`` that
    drops state: a mid-run world comes back from a pickle round trip
    with the same ``repro`` objects carrying the same attribute names."""
    config = _config(fidelity, sim_ms=10)
    config.telemetry_interval_ns = MILLISECOND
    config.trace = TraceConfig(level="flow", sample_period_ns=MILLISECOND)
    config.faults = parse_faults(["link:leaf0-spine1:down@1ms,up@8ms"])
    world = runner._build_world(config)
    # Under the hooks, so that the pickled tracer holds records.
    with trace_hooks.activated(world.tracer):
        world.engine.run(until=config.sim_time_ns // 2)
    assert world.tracer._events.open and world.tracer._samples.open
    before = _repro_objects(world)
    after = _repro_objects(pickle.loads(
        pickle.dumps(world, pickle.HIGHEST_PROTOCOL)))
    assert sum(before.values()) > 1000
    expected = {"LiveRun", "Engine", "Event", "Link", "Port", "Switch",
                "Host", "DctcpSender", "FlowReceiver", "RngRegistry",
                "FaultInjector", "TelemetryMonitor", "TraceSampler",
                "Tracer", "RecordLog", "MetricsCollector"}
    if fidelity == "hybrid":
        expected.add("FidelityController")
    assert expected <= {kind for kind, _ in before}
    assert after == before


# -- a traced run resumes its trace ---------------------------------------------


def _jsonl(result):
    return "\n".join(jsonl_lines(result.trace))


@pytest.mark.filterwarnings("ignore:fidelity demotion cascade")
@pytest.mark.parametrize("fidelity", ["packet", "hybrid"])
def test_restored_traced_run_exports_the_uninterrupted_bytes(
        tmp_path, monkeypatch, fidelity):
    """The tracer and its log ride in the checkpoint: sealed chunks, the
    partial open chunk and the tallies all come back, and the resumed
    run's JSONL is the uninterrupted checkpointed run's, byte for byte."""
    # Small chunks, so that 4 ms of records seals several of them.
    monkeypatch.setattr(tracer_mod, "CHUNK_RECORDS", 256)

    def traced(directory):
        config = ExperimentConfig.bench_profile(
            system="vertigo", transport="dctcp", bg_load=0.5,
            incast_load=0.25, sim_time_ns=10 * MILLISECOND, seed=7)
        if fidelity == "hybrid":
            # Demotes early: fid.mode, sample.fid and packet events.
            config.fidelity = FidelityConfig(mode="hybrid", demote_shares=2)
        config.trace = TraceConfig(level="packet",
                                   sample_period_ns=MILLISECOND // 2)
        return _checkpointed(config, directory, every_ms=4)

    reference = run_experiment(traced(tmp_path / "uninterrupted"))
    assert reference.checkpoint["checkpoints_written"] == 2
    assert reference.trace.counts()["engine.span"] == 3

    # Preempted at the first epoch boundary: checkpoint, then stop.
    with monkeypatch.context() as patch:
        patch.setattr(runner, "preemption_requested", lambda: True)
        with pytest.raises(RunPreempted):
            run_experiment(traced(tmp_path))

    config = traced(tmp_path)
    _header, world, _used = store.load_latest(
        _managed_path(config), expect_config=config_digest(config))
    assert world.engine.now == 4 * MILLISECOND
    events = world.tracer._events
    assert events.chunks and events.open      # sealed chunks + a partial
    assert world.tracer._samples.chunks

    resumed = run_experiment(config)
    assert resumed.checkpoint["restored_from_ns"] == 4 * MILLISECOND
    assert _jsonl(resumed) == _jsonl(reference)
    assert resumed.report().to_dict()["trace"] \
        == reference.report().to_dict()["trace"]


# -- DCQCN's rate clock is state, not a calendar entry ---------------------------


def test_dcqcn_clock_survives_a_restore_mid_period(tmp_path, monkeypatch):
    """The increase clock is ``(epoch, now)``: a DCQCN+PFC run preempted
    between two ticks, with ticks owed that nobody has read yet, restores
    to the uninterrupted digest."""

    def lossless(directory=None):
        config = ExperimentConfig.bench_profile(
            system="ecmp", transport="dcqcn", bg_load=0.5, incast_load=0.25,
            incast_scale=12, sim_time_ns=10 * MILLISECOND, seed=1)
        config.pfc = PfcConfig(enabled=True, num_classes=2,
                               priority_map=(0, 1))
        return config if directory is None \
            else _checkpointed(config, directory, every_ms=3)

    reference = run_digest(run_experiment(lossless()))
    with monkeypatch.context() as patch:
        patch.setattr(runner, "preemption_requested", lambda: True)
        with pytest.raises(RunPreempted):
            run_experiment(lossless(tmp_path))

    config = lossless(tmp_path)
    _header, world, _used = store.load_latest(
        _managed_path(config), expect_config=config_digest(config))
    now = world.engine.now
    assert now == 3 * MILLISECOND
    phases = [divmod(now - sender._rate_epoch, sender._timer_ns)
              for host in world.network.hosts
              for sender in host.senders.values()]
    assert any(into_period for _owed, into_period in phases)
    assert any(owed for owed, _into_period in phases)

    resumed = run_experiment(config)
    assert resumed.checkpoint["restored_from_ns"] == 3 * MILLISECOND
    assert run_digest(resumed) == reference


# -- SIGKILL then restore, pooled supervisor -----------------------------------


def _sweep_configs(fidelity, directory, n=2, sim_ms=40):
    configs = [_checkpointed(_config(fidelity, seed=seed, sim_ms=sim_ms),
                             directory) for seed in (7, 8)[:n]]
    return configs


def _suicide_after_checkpoint(config):
    """SIGKILL own worker once a checkpoint exists — first attempt only."""
    flag = os.path.join(os.environ["REPRO_TEST_FLAG_DIR"],
                        f"seed{config.seed}")
    if not os.path.exists(flag):
        open(flag, "w").close()
        path = config.checkpoint.resolve_path(config_digest(config))

        def _watch():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if os.path.exists(path):
                    os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(0.002)

        threading.Thread(target=_watch, daemon=True).start()
    return _run_portable(config)


@pytest.fixture
def flag_dir(tmp_path_factory, monkeypatch):
    path = tmp_path_factory.mktemp("flags")
    monkeypatch.setenv("REPRO_TEST_FLAG_DIR", str(path))
    return path


@pytest.mark.parametrize("fidelity", ["packet", "hybrid"])
def test_pool_sigkill_resumes_to_reference_digest(flag_dir, tmp_path,
                                                 fidelity):
    configs = _sweep_configs(fidelity, tmp_path)
    reference = [run_digest(r) for r in run_many(
        [_config(fidelity, seed=seed) for seed in (7, 8)], jobs=1)]
    policy = SupervisorPolicy(max_retries=2, **FAST_BACKOFF)
    report = run_supervised(configs, jobs=2, policy=policy,
                            runner=_suicide_after_checkpoint)
    assert report.ok, report.manifest()["failures"]
    assert [run_digest(r) for r in report.results] == reference
    # At least one run died and came back.
    assert max(o.attempts for o in report.outcomes) >= 2


# -- graceful preemption via --run-timeout -------------------------------------


def test_run_timeout_preempts_and_resumes_across_attempts(tmp_path):
    # ~1.2 s of work against a 0.45 s deadline: at 80 ms the run had come
    # to finish in ~0.5 s and beat the watchdog about every other time.
    config = _checkpointed(_config("packet", sim_ms=160), tmp_path,
                           every_ms=20)
    policy = SupervisorPolicy(run_timeout_s=0.45, preempt_grace_s=10.0,
                              max_retries=8, **FAST_BACKOFF)
    report = run_supervised([config], jobs=1, policy=policy)
    assert report.ok, report.manifest()["failures"]
    outcome = report.outcomes[0]
    assert outcome.attempts >= 2          # at least one preempt-resume cycle
    assert report.results[0].checkpoint["restored_from_ns"] is not None
    reference = run_digest(run_experiment(_config("packet", sim_ms=160)))
    assert run_digest(report.results[0]) == reference


# -- stall watchdog ------------------------------------------------------------


def _stuck_clock(config):
    time.sleep(600)
    return _run_portable(config)


def test_stalled_simulated_clock_is_flagged(tmp_path):
    config = _checkpointed(_config("packet"), tmp_path)
    policy = SupervisorPolicy(run_timeout_s=1.0, stall_timeout_s=0.2,
                              preempt_grace_s=0.2, max_retries=0,
                              **FAST_BACKOFF)
    report = run_supervised([config], jobs=1, policy=policy,
                            runner=_stuck_clock)
    assert not report.ok
    manifest = report.manifest()
    assert manifest["stalls"] == [0]
    assert report.outcomes[0].stalled
    assert report.outcomes[0].status == "timeout"
