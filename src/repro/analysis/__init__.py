"""Correctness tooling: the two conventions Python does not enforce.

All randomness flows through named :class:`~repro.sim.rng.RngRegistry`
streams, and every quantity is an integer in canonical units (ns, bytes,
bits per second).  Two halves hold the simulator to that:

- **Static analysis** (``python -m repro lint``,
  :mod:`repro.analysis.driver`).  Each file is parsed once and walked
  once, by :func:`repro.analysis.lint.check_file`: every rule but
  VR090, with one float interpreter for VR003 (unit quantities) and
  VR150 (integer-only functions).  Path exemptions and tracked
  ``# noqa: VRxxx`` comments (:mod:`repro.analysis.suppress`) filter
  the findings; a file that cannot be read, parsed or walked is one
  VR000.  DESIGN.md,
  "Static analysis", gives each rule and why it is kept.
- **Runtime sanitizer** (:mod:`repro.analysis.sanitize`,
  ``REPRO_SANITIZE=1``): invariant checks in the hot paths, behind a
  module global that costs one test when off.
"""
