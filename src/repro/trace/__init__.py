"""repro.trace — flow/packet event tracing, samplers, profiling hooks.

The observability layer for experiment runs:

- :class:`TraceConfig` selects what to record (``level="flow"`` or
  ``"packet"``, optional sampler period, ring bounds); pass it via
  ``ExperimentConfig.trace``.
- :class:`Tracer` / :class:`TraceData` are the live sink and the
  detached, picklable record of one run (``RunResult.trace``); both
  hold records end to end in the flat chunks of a
  :class:`~repro.trace.tracer.RecordLog`.
- :mod:`repro.trace.hooks` is the zero-cost-off hook registry the
  instrumented engine/switch/link/host/transport modules register with.
- :class:`TraceSampler` records periodic port-queue / link-utilization /
  flow-cwnd time series; :class:`PhaseProfiler` attributes wall time to
  run phases (excluded from deterministic exports).
- :mod:`repro.trace.export` serializes traces as deterministic JSONL and
  Chrome ``trace_event`` JSON (Perfetto-openable) and validates them.
"""

from repro.trace.export import (
    convert_jsonl_to_chrome,
    jsonl_lines,
    read_jsonl,
    summarize_file,
    validate_file,
    validate_lines,
    write_jsonl,
)
from repro.trace.profiler import PhaseProfiler
from repro.trace.sampler import TraceSampler
from repro.trace.tracer import (
    EVENT_FIELDS,
    PACKET_KINDS,
    TRACE_LEVELS,
    TRACE_SCHEMA,
    TraceConfig,
    TraceData,
    Tracer,
)

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
