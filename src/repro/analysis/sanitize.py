"""Opt-in runtime invariant sanitizer (``REPRO_SANITIZE=1``).

The simulator's hot paths carry sanitizer hooks that are compiled down to
a single module-global boolean test when the sanitizer is off, so the
default configuration pays (measurably) nothing.  When enabled — via the
``REPRO_SANITIZE`` environment variable, ``ExperimentConfig.sanitize``,
or :func:`scoped` — the following invariants are checked continuously:

- **event-time monotonicity** (:mod:`repro.sim.engine`): the calendar
  never runs backwards and every event time / delay is an ``int``
  (a float sneaking in would silently break nanosecond discipline);
- **queue byte-accounting** (:mod:`repro.net.queues`): a queue's tracked
  ``bytes`` always equals the sum of its enqueued packets' wire sizes and
  respects its capacity;
- **rank-queue heap invariants** (:mod:`repro.core.scheduler`): the lazy
  twin heaps agree with the live element count and min <= max;
- **switch conservation** (:mod:`repro.net.switch`): every packet a
  switch receives is either enqueued somewhere, dropped with a reason, or
  still resident — nothing vanishes, nothing is duplicated;
- **release-exactly-once** (:mod:`repro.core.ordering`): the RX ordering
  shim never releases the same packet object twice.

Instrumented modules call :func:`register` at import time and cache the
returned state in a module global ``_SANITIZE``; toggling re-writes that
global in every registered module, so per-event code never pays an
attribute lookup into this module while disabled.

CLI: ``python -m repro.analysis sanitize`` measures the sanitizer's
overhead on the simulation kernel and on one benchmark-profile
experiment, and doubles as a smoke test that the checks execute.
(``python -m repro.analysis.sanitize`` also works, but runpy warns
about the module having already been imported via the package.)
"""

from __future__ import annotations

import contextlib
import os
import sys
from typing import Iterator, List, Optional, Sequence


class SanitizerError(AssertionError):
    """An invariant the simulator is built on was observed broken."""


_enabled = os.environ.get("REPRO_SANITIZE", "") not in ("", "0", "false",
                                                        "False")


#: Instrumented modules (append-only process-wide hook registry).
_REGISTRY: List[str] = []

#: Number of invariant checks executed while enabled (diagnostics only).
checks_run = 0


def register(module_name: str) -> bool:
    """Record ``module_name`` as instrumented; returns the current state.

    Instrumented modules use it as::

        from repro.analysis import sanitize as _sanitize
        _SANITIZE = _sanitize.register(__name__)

    and guard every check with ``if _SANITIZE:`` — a module-global load,
    the cheapest toggle Python offers short of recompiling.
    """
    if module_name not in _REGISTRY:
        _REGISTRY.append(module_name)
    return _enabled


def enabled() -> bool:
    """Is the sanitizer currently on?"""
    return _enabled


def set_enabled(on: bool) -> None:
    """Flip the sanitizer and rewrite every registered module's flag."""
    global _enabled
    _enabled = bool(on)
    for name in _REGISTRY:
        module = sys.modules.get(name)
        if module is not None:
            module._SANITIZE = _enabled


@contextlib.contextmanager
def scoped(on: bool = True) -> Iterator[None]:
    """Temporarily enable (or disable) the sanitizer.

    Components that bind their instrumentation at construction time (the
    ordering shim) must be *built* inside the scope to be checked — the
    experiment runner does exactly that for ``ExperimentConfig.sanitize``.
    """
    previous = _enabled
    set_enabled(on)
    try:
        yield
    finally:
        set_enabled(previous)


def check(condition: bool, message: str, *args: object) -> None:
    """Raise :class:`SanitizerError` unless ``condition`` holds."""
    global checks_run
    # Diagnostics-only counter, deliberately outside the run digest.
    checks_run += 1  # noqa: VR120
    if not condition:
        raise SanitizerError(message % args if args else message)


# -- CLI: overhead measurement -------------------------------------------------


def _time_kernel(n_events: int) -> float:
    """Seconds of wall time to run ``n_events`` empty events."""
    import time

    from repro.sim.engine import Engine

    engine = Engine()

    def tick() -> None:
        if engine.events_executed + executed[0] < n_events:
            executed[0] += 1
            engine.schedule(1, tick)

    executed = [0]
    engine.schedule(1, tick)
    start = time.perf_counter()  # noqa: VR002 - measurement harness
    engine.run(max_events=n_events)
    return time.perf_counter() - start  # noqa: VR002 - measurement harness


def _time_experiment() -> float:
    """Seconds of wall time for one small bench-profile run."""
    import time

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment
    from repro.sim.units import MILLISECOND

    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.2, incast_qps=80,
        incast_scale=6, sim_time_ns=20 * MILLISECOND)
    start = time.perf_counter()  # noqa: VR002 - measurement harness
    run_experiment(config)
    return time.perf_counter() - start  # noqa: VR002 - measurement harness


def _best_of(fn, repeats: int) -> float:
    """Minimum of ``repeats`` timed runs, after one untimed warmup.

    The warmup keeps allocator / bytecode-cache cold-start costs out of
    whichever state happens to be measured first.
    """
    fn()
    return min(fn() for _ in range(repeats))


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.sanitize",
        description="Measure the runtime sanitizer's overhead (off vs on) "
                    "on the event kernel and one bench experiment.")
    parser.add_argument("--events", type=int, default=200_000,
                        help="kernel events per measurement (default 200k)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per state; the minimum is "
                             "reported (default 3)")
    parser.add_argument("--skip-experiment", action="store_true")
    args = parser.parse_args(argv)

    rows = []
    with scoped(False):
        off = _best_of(lambda: _time_kernel(args.events), args.repeats)
    with scoped(True):
        before = checks_run
        _time_kernel(args.events)
        kernel_checks = checks_run - before
        on = min(_time_kernel(args.events) for _ in range(args.repeats))
    rows.append(("kernel", args.events, off, on, kernel_checks))

    if not args.skip_experiment:
        with scoped(False):
            off = _best_of(_time_experiment, 1)
        with scoped(True):
            before = checks_run
            _time_experiment()
            run_checks = checks_run - before
            on = _time_experiment()
        rows.append(("bench-experiment", None, off, on, run_checks))

    print(f"{'workload':<18} {'off_s':>8} {'on_s':>8} {'overhead':>9} "
          f"{'checks':>10}")
    for name, _, off, on, n_checks in rows:
        overhead = (on - off) / off * 100 if off else float("nan")
        print(f"{name:<18} {off:>8.3f} {on:>8.3f} {overhead:>8.1f}% "
              f"{n_checks:>10}")
    if any(n_checks == 0 for *_, n_checks in rows):
        print("sanitizer executed no checks — instrumentation broken?",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    # Under ``python -m`` this file runs as ``__main__`` — a *second*
    # module object, distinct from the ``repro.analysis.sanitize`` that
    # the instrumented modules registered with at import time.  Delegate
    # to the canonical instance so scoped()/checks_run observe the real
    # registry instead of this copy's empty one.
    from repro.analysis import sanitize as _canonical

    raise SystemExit(_canonical.main())
