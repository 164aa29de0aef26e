"""Zero-cost-off trace hook registry.

The dataplane's hot paths carry trace record sites that must cost nothing
while tracing is off (the overwhelmingly common case; the benchmark
ledger's ``trace.overhead_pct`` tracks the on-cost).  The mechanism is
the same one the runtime sanitizer uses
(:mod:`repro.analysis.sanitize`): instrumented modules register at
import time and cache the *active tracer* in a module global::

    from repro.trace import hooks as _trace_hooks
    _TRACE = _trace_hooks.register(__name__)

and guard every site with ``if _TRACE is not None:`` — a module-global
load plus an identity test, the cheapest toggle Python offers — before
handing the whole record to ``_TRACE.record((kind, t, *fields))``
(packet-scope sites also test ``_TRACE.packets``).
:func:`activate` rewrites that global in every registered module with
the live :class:`~repro.trace.tracer.Tracer`; :func:`deactivate`
restores ``None``.  A module binding ``_TRACE`` any other way is never
rewritten and its sites never fire; ``tests/unit/test_trace.py``'s
record census holds every module with a site to the line above.

Only one tracer can be active per process at a time, which matches how
experiments execute: serially within a process, with parallel sweep
points isolated in worker processes (each worker activates its own
tracer for its own run).
"""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator, List, Optional

#: Instrumented modules (append-only process-wide hook registry).
_REGISTRY: List[str] = []

#: The tracer currently receiving events, or None (tracing off).
_active = None


def register(module_name: str) -> Optional[object]:
    """Record ``module_name`` as instrumented; return the active tracer."""
    if module_name not in _REGISTRY:
        _REGISTRY.append(module_name)
    return _active


def active() -> Optional[object]:
    """The tracer currently receiving events, or None."""
    return _active


def _rewrite(tracer: Optional[object]) -> None:
    global _active
    _active = tracer
    for name in _REGISTRY:
        module = sys.modules.get(name)
        if module is not None:
            module._TRACE = tracer


def activate(tracer: object) -> None:
    """Start delivering trace events to ``tracer``.

    Raises if another tracer is already active: overlapping traced runs
    within one process would interleave their event streams.
    """
    if _active is not None and _active is not tracer:
        raise RuntimeError("another tracer is already active; "
                           "traced runs cannot nest")
    _rewrite(tracer)


def deactivate() -> None:
    """Stop tracing; every registered module's ``_TRACE`` becomes None."""
    _rewrite(None)


@contextlib.contextmanager
def activated(tracer: object) -> Iterator[None]:
    """Scope ``tracer`` activation to a ``with`` block (exception-safe)."""
    activate(tracer)
    try:
        yield
    finally:
        deactivate()
