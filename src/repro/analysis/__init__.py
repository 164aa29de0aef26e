"""Correctness tooling for the simulator.

Two halves, both machine-checking invariants the rest of the codebase is
written against but that Python itself does not enforce:

- **Static analysis** (``python -m repro lint``) — one pipeline,
  :func:`repro.analysis.driver.run_analysis`, one loop over files;
  every rule is a function of one file's AST:

  - :mod:`repro.analysis.lint` — VR001–VR004: all randomness through
    named :class:`~repro.sim.rng.RngRegistry` streams, no wall-clock
    reads in simulation code, integer nanosecond/byte/bit-rate unit
    discipline, no module-lifetime mutable state; plus ``Violation``,
    the rule catalogue, ``LintConfig`` and the pyproject loader.
  - :mod:`repro.analysis.dataflow` — per-function unit/float
    provenance (locals, literals, ``/`` vs ``//``, unit-suffixed
    names): VR100 (float or seconds values reaching ``*_ns`` slots
    through a local or a ``*_s``-named call) and VR150 (no float
    arithmetic inside the integer-only analytic / PFC functions).
  - :mod:`repro.analysis.rules` — VR110 (``.stream()`` names declared
    in ``RNG_STREAMS``), VR140 (``_TRACE`` hook use without
    registration).
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
    "dataflow",
    "driver",
    "lint",
    "rules",
    "sanitize",
    "suppress",
]
