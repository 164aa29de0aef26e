"""Deterministic, declaratively-configured fault injection.

Answering the reproduction's robustness questions — does Vertigo still
beat DIBS/DRILL when a spine link dies mid-incast?  do deflection loops
form under failure-induced asymmetry? — requires a dataplane that can be
rewired *while the simulation runs*.  This package provides the
declarative layer: :class:`FaultSpec` describes timed ``link_down`` /
``link_up`` transitions and probabilistic corruption loss on named
cables; :class:`FaultInjector` schedules them on the engine (integer
ns, deterministic ordering, named RNG streams) and applies them through
the runtime-rewiring surface of :class:`~repro.net.builder.Network`,
which recomputes routes over the surviving edges and invalidates every
memoized forwarding decision.

Scenarios thread through :class:`~repro.experiments.config.ExperimentConfig`
(``faults=...``), the CLI (``--fault link:leaf0-spine1:down@50ms,up@120ms``)
and the determinism digest; ``FaultInjector.applied`` is the run's
fault timeline.  The injector loads on first use of its names: a healthy
run never imports it.
"""

from importlib import import_module

from repro.faults.spec import (
    FAULT_KINDS,
    FaultParseError,
    FaultSpec,
    cable_key,
    parse_fault,
    parse_faults,
    parse_time_ns,
)

#: Name -> the module that defines it, imported on first access.
_LAZY = {"FAULT_PRIORITY": "repro.faults.injector",
         "FaultInjector": "repro.faults.injector"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name]), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "FAULT_KINDS",
    "FAULT_PRIORITY",
    "FaultInjector",
    "FaultParseError",
    "FaultSpec",
    "cable_key",
    "parse_fault",
    "parse_faults",
    "parse_time_ns",
]
