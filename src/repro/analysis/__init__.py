"""Correctness tooling for the simulator.

Two halves, both machine-checking invariants the rest of the codebase is
written against but that Python itself does not enforce:

- **Static analysis** (``python -m repro lint``) — one pipeline,
  :func:`repro.analysis.driver.run_analysis`, over:

  - :mod:`repro.analysis.lint` — per-file AST rules VR001–VR004: all
    randomness through named :class:`~repro.sim.rng.RngRegistry`
    streams, no wall-clock reads in simulation code, integer
    nanosecond/byte/bit-rate unit discipline, no module-lifetime mutable
    state; plus ``Violation`` / ``LintConfig`` / the pyproject loader.
  - :mod:`repro.analysis.callgraph` — project-wide symbol table and
    call graph (entry points = forwarding-policy methods and scheduled
    callbacks).
  - :mod:`repro.analysis.dataflow` — interprocedural unit-of-measure
    dataflow: VR100 (seconds-valued floats flowing into ``*_ns`` slots
    across call boundaries) and VR150 (no float arithmetic inside the
    integer-only analytic / PFC functions).
  - :mod:`repro.analysis.rules` — VR110 (RNG stream ownership), VR120
    (digest-escaping mutable state), VR140 (unguarded ``_TRACE`` hook
    use).
  - :mod:`repro.analysis.suppress` — the one suppression spelling,
    ``# noqa: VRxxx``; a code that suppresses nothing is VR090.
  - :mod:`repro.analysis.driver` — the pipeline and its CLI.

- :mod:`repro.analysis.sanitize` — an opt-in runtime sanitizer
  (``REPRO_SANITIZE=1`` or ``ExperimentConfig.sanitize``) wiring
  event-time monotonicity, queue byte-accounting, switch conservation,
  rank-queue heap and release-exactly-once checks into the hot paths,
  at zero cost when disabled.
"""

__all__ = [
    "callgraph",
    "dataflow",
    "driver",
    "lint",
    "rules",
    "sanitize",
    "suppress",
]
