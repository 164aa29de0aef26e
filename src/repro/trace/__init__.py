"""repro.trace — flow/packet event tracing, samplers, profiling hooks.

The observability layer for experiment runs:

- :class:`~repro.trace.config.TraceConfig` selects what to record
  (``level="flow"`` or ``"packet"``, optional sampler period, ring
  bounds); pass it via ``ExperimentConfig.trace``.
- :data:`~repro.trace.tracer.EVENT_FIELDS` is the trace schema: the one
  statement of each record kind's fields, in the order a record lays
  them down.
- :class:`~repro.trace.tracer.Tracer` / :class:`~repro.trace.tracer.TraceData`
  are the live sink and the detached, picklable record of one run
  (``RunResult.trace``); both hold records end to end in the flat chunks
  of a :class:`~repro.trace.tracer.RecordLog`, each sealed chunk one
  pickled ``bytes`` object.  Every event site hands ``Tracer.record``
  one ``(kind, t, *fields)`` tuple.
- :mod:`repro.trace.hooks` is the zero-cost-off hook registry the
  instrumented engine/network/host/transport/metrics modules register
  with.
- :class:`~repro.trace.sampler.TraceSampler` records periodic port-queue
  / link-utilization / flow-cwnd time series;
  :class:`~repro.trace.profiler.PhaseProfiler` attributes wall time to
  run phases (excluded from deterministic exports).
- :mod:`repro.trace.export` serializes traces as deterministic JSONL and
  Chrome ``trace_event`` JSON (Perfetto-openable) and validates them.

An untraced run never imports the recorder, sampler or exporter.
"""
