"""repro.trace — flow/packet event tracing, samplers, profiling hooks.

The observability layer for experiment runs:

- :class:`TraceConfig` selects what to record (``level="flow"`` or
  ``"packet"``, optional sampler period, ring bounds); pass it via
  ``ExperimentConfig.trace``.
- :data:`EVENT_FIELDS` is the trace schema: the one statement of each
  record kind's fields, in the order a record lays them down.
- :class:`Tracer` / :class:`TraceData` are the live sink and the
  detached, picklable record of one run (``RunResult.trace``); both
  hold records end to end in the flat chunks of a
  :class:`~repro.trace.tracer.RecordLog`, each sealed chunk one pickled
  ``bytes`` object.  Every event site hands ``Tracer.record`` one
  ``(kind, t, *fields)`` tuple.
- :mod:`repro.trace.hooks` is the zero-cost-off hook registry the
  instrumented engine/network/host/transport/metrics modules register
  with.
- :class:`TraceSampler` records periodic port-queue / link-utilization /
  flow-cwnd time series; :class:`PhaseProfiler` attributes wall time to
  run phases (excluded from deterministic exports).
- :mod:`repro.trace.export` serializes traces as deterministic JSONL and
  Chrome ``trace_event`` JSON (Perfetto-openable) and validates them.

The recorder, sampler and exporter load on first use of one of their
names: an untraced run never imports them.
"""

from importlib import import_module

from repro.trace.config import TRACE_LEVELS, TraceConfig
from repro.trace.profiler import PhaseProfiler

#: Name -> the module that defines it, imported on first access.
_LAZY = {
    "EVENT_FIELDS": "repro.trace.tracer",
    "PACKET_KINDS": "repro.trace.tracer",
    "TRACE_SCHEMA": "repro.trace.tracer",
    "TraceData": "repro.trace.tracer",
    "Tracer": "repro.trace.tracer",
    "TraceSampler": "repro.trace.sampler",
    "convert_jsonl_to_chrome": "repro.trace.export",
    "jsonl_lines": "repro.trace.export",
    "read_jsonl": "repro.trace.export",
    "summarize_file": "repro.trace.export",
    "validate_file": "repro.trace.export",
    "validate_lines": "repro.trace.export",
    "write_jsonl": "repro.trace.export",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name]), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "EVENT_FIELDS",
    "PACKET_KINDS",
    "TRACE_LEVELS",
    "TRACE_SCHEMA",
    "PhaseProfiler",
    "TraceConfig",
    "TraceData",
    "TraceSampler",
    "Tracer",
    "convert_jsonl_to_chrome",
    "jsonl_lines",
    "read_jsonl",
    "summarize_file",
    "validate_file",
    "validate_lines",
    "write_jsonl",
]
