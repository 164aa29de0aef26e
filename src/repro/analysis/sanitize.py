"""Opt-in runtime invariant sanitizer (``REPRO_SANITIZE=1``).

The simulator's hot paths carry sanitizer hooks that are compiled down to
a single module-global boolean test when the sanitizer is off, so the
default configuration pays (measurably) nothing.  ``REPRO_SANITIZE=1``
is the one switch: it is read at import, and the sweep supervisor's pool
initializer exports it to its workers (:func:`scoped` flips it in
tests).  When enabled, the following invariants are checked
continuously:

- **event-time monotonicity** (:mod:`repro.sim.engine`): the calendar
  never runs backwards and every event time / delay is an ``int``
  (a float sneaking in would silently break nanosecond discipline);
- **lazy-clock epoch** (:mod:`repro.transport.dcqcn`): never ahead of ``now``;
- **queue byte-accounting** (:mod:`repro.net.queues`): a queue's tracked
  ``bytes`` always equals the sum of its enqueued packets' wire sizes and
  respects its capacity;
- **rank-queue order** (:mod:`repro.core.scheduler`): the array is
  strictly sorted by (rank, arrival) and holds only arrivals it issued;
- **filter/table agreement** (:mod:`repro.core.marking`): at every
  ``flow_done`` the cuckoo filter holds exactly one fingerprint per
  ``(flow, seq)`` the exact tables remember;
- **switch conservation** (:mod:`repro.net.switch`): every packet a
  switch receives is either enqueued somewhere, dropped with a reason, or
  still resident — nothing vanishes, nothing is duplicated;
- **release-exactly-once** (:mod:`repro.core.ordering`): the RX ordering
  shim never releases the same packet object twice;
- **whole trace records** (:mod:`repro.trace.tracer`): every sealed
  chunk of the flat record log, and the detached log, is a run of
  records each starting with a known kind and ending exactly at the
  chunk's end — a hook that lays down the wrong number of values is
  caught at the next seal.

Instrumented modules call :func:`register` at import time and cache the
returned state in a module global ``_SANITIZE``; toggling re-writes that
global in every registered module (:class:`ModuleGlobal`, which
:mod:`repro.trace.hooks` uses for ``_TRACE`` too), so per-event code
never pays an attribute lookup into this module while disabled.
"""

from __future__ import annotations

import contextlib
import os
import sys
from typing import Any, Iterator, List


class SanitizerError(AssertionError):
    """An invariant the simulator is built on was observed broken."""


class ModuleGlobal:
    """A value that every registered module caches in its global ``name``.

    A module registers at import and binds the returned value::

        _SANITIZE = _sanitize.register(__name__)

    and its hot paths test that global (``if _SANITIZE:``) — a
    module-global load, the cheapest toggle Python offers short of
    recompiling.  :meth:`set` rewrites the global in every registered
    module that is loaded.
    """

    def __init__(self, name: str, value: Any) -> None:
        self.name = name
        self.value = value
        self._modules: List[str] = []  # append-only, process-wide

    def register(self, module_name: str) -> Any:
        """Record ``module_name`` as instrumented; return the value."""
        if module_name not in self._modules:
            self._modules.append(module_name)
        return self.value

    def set(self, value: Any) -> None:
        self.value = value
        for module_name in self._modules:
            module = sys.modules.get(module_name)
            if module is not None:
                setattr(module, self.name, value)


_SWITCH = ModuleGlobal("_SANITIZE", os.environ.get("REPRO_SANITIZE", "")
                       not in ("", "0", "false", "False"))
register = _SWITCH.register

#: Number of invariant checks executed while enabled (diagnostics only).
checks_run = 0


def enabled() -> bool:
    """Is the sanitizer currently on?"""
    return _SWITCH.value


def set_enabled(on: bool) -> None:
    """Flip the sanitizer and rewrite every registered module's flag."""
    _SWITCH.set(bool(on))


@contextlib.contextmanager
def scoped(on: bool = True) -> Iterator[None]:
    """Temporarily enable (or disable) the sanitizer.

    Components that bind their instrumentation at construction time (the
    ordering shim) must be *built* inside the scope to be checked: wrap
    the whole ``run_experiment`` call.
    """
    previous = _SWITCH.value
    set_enabled(on)
    try:
        yield
    finally:
        set_enabled(previous)


def check(condition: bool, message: str, *args: object) -> None:
    """Raise :class:`SanitizerError` unless ``condition`` holds."""
    global checks_run
    # Diagnostics-only counter, deliberately outside the run digest.
    checks_run += 1
    if not condition:
        raise SanitizerError(message % args if args else message)
