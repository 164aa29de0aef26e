"""Sweep executor: job-count resolution and worker initialization."""

import multiprocessing
import os
import signal

import pytest

from repro.analysis import sanitize
from repro.experiments import parallel
from repro.runtime import supervisor


def _probe_worker_state():
    """Runs inside a pool worker: report the sanitizer state it sees.

    Module-level so it pickles under the spawn/forkserver start methods
    (the tests package ships to workers via sys.path).
    """
    return sanitize.enabled(), os.environ.get("REPRO_SANITIZE")


def test_default_is_serial(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert parallel.resolve_jobs(None) == 1


def test_explicit_argument_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert parallel.resolve_jobs(3) == 3


def test_env_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert parallel.resolve_jobs(None) == 4


def test_zero_means_one_worker_per_cpu(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    expected = os.cpu_count() or 1
    assert parallel.resolve_jobs(0) == expected
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert parallel.resolve_jobs(None) == expected


def test_bad_env_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError):
        parallel.resolve_jobs(None)


def test_env_whitespace_tolerated(monkeypatch):
    # `REPRO_JOBS=" 4 "` (trailing space from a shell export) must parse.
    monkeypatch.setenv("REPRO_JOBS", " 4 ")
    assert parallel.resolve_jobs(None) == 4
    monkeypatch.setenv("REPRO_JOBS", "   ")
    assert parallel.resolve_jobs(None) == 1  # all-blank == unset


def test_worker_init_installs_sanitizer_state(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "0")  # registers env restore
    was_enabled = sanitize.enabled()
    # The initializer also installs the worker signal disposition; this
    # test runs it in the pytest process, so put the handlers back.
    handlers = {signum: signal.getsignal(signum)
                for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        supervisor._worker_init(True)
        assert sanitize.enabled()
        assert os.environ["REPRO_SANITIZE"] == "1"
        assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        # Not the supervisor's trap: a SIGTERMed worker simply dies.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        supervisor._worker_init(False)
        assert not sanitize.enabled()
        assert os.environ["REPRO_SANITIZE"] == "0"
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        sanitize.set_enabled(was_enabled)


@pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
def test_worker_init_under_start_method(start_method):
    """_worker_init must install the sanitizer whatever the start method.

    spawn/forkserver workers import everything fresh (no inherited
    interpreter state), so this is the path where a broken initializer
    would silently drop the sanitizer.
    """
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} unavailable on this platform")
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(start_method)
    with ProcessPoolExecutor(max_workers=1, mp_context=context,
                             initializer=supervisor._worker_init,
                             initargs=(True,)) as pool:
        enabled, env = pool.submit(_probe_worker_state).result(timeout=120)
    assert enabled is True
    assert env == "1"
