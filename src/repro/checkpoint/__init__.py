"""Deterministic in-run checkpoint/restore for long simulations.

One simulated second of a paper-scale hybrid run costs ~21 s of wall
clock; multi-second sweep points run for minutes.  This package makes
those runs survivable: at every checkpoint epoch the runner persists the
*entire* live simulation — event calendar, named RNG streams, switch and
PFC state, fidelity controllers, transports, workload cursors — as one
plain pickle of the ``LiveRun`` object graph, and a killed or crashed
run resumes from its last epoch with a final run digest byte-identical
to an uninterrupted run.

Pieces:

- :mod:`repro.checkpoint.store` — atomic versioned checkpoint files
  with content digests, a derived source-code fingerprint (a checkpoint
  from different code is refused), one-generation fallback.
- :mod:`repro.checkpoint.config` — :class:`CheckpointConfig`, the knob
  carried (digest-neutrally) by ``ExperimentConfig``.

Nothing here handles signals: a run is stopped by killing its process,
and its next attempt resumes from the last whole epoch on disk.
"""

# The benchmark ledger imports this name from here.
from repro.checkpoint.config import CheckpointConfig
