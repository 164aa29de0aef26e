"""Deterministic in-run checkpoint/restore for long simulations.

One simulated second of a paper-scale hybrid run costs ~21 s of wall
clock; multi-second sweep points run for minutes.  This package makes
those runs survivable: at every checkpoint epoch the runner persists the
*entire* live simulation — event calendar, named RNG streams, switch and
PFC state, fidelity controllers, transports, workload cursors — as one
plain pickle of the ``LiveRun`` object graph, and a killed, preempted,
or crashed run resumes from its last epoch with a final run digest
byte-identical to an uninterrupted run.

Pieces:

- :mod:`repro.checkpoint.store` — atomic versioned checkpoint files
  with content digests, a derived source-code fingerprint (a checkpoint
  from different code is refused), one-generation fallback, progress
  sidecars.
- :mod:`repro.checkpoint.config` — :class:`CheckpointConfig`, the knob
  carried (digest-neutrally) by ``ExperimentConfig``.
- :mod:`repro.checkpoint.runtime` — SIGTERM/SIGINT checkpoint-then-exit
  signaling for workers and foreground runs.
"""

from repro.checkpoint.config import DEFAULT_CHECKPOINT_DIR, CheckpointConfig
from repro.checkpoint.store import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                    CheckpointError, RunPreempted, discard,
                                    load_latest, progress_path,
                                    read_checkpoint, read_progress,
                                    write_checkpoint, write_progress)

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointConfig",
    "CheckpointError",
    "DEFAULT_CHECKPOINT_DIR",
    "RunPreempted",
    "discard",
    "load_latest",
    "progress_path",
    "read_checkpoint",
    "read_progress",
    "write_checkpoint",
    "write_progress",
]
