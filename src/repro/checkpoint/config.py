"""Checkpoint policy attached to an :class:`ExperimentConfig`.

``CheckpointConfig`` is deliberately **excluded from config digests**
(the field on ``ExperimentConfig`` is ``repr=False``): whether and how
often a run checkpoints must not change its identity, exactly like
trace and profiling settings must not change its results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.sim.units import MILLISECOND

#: Directory used when no ``directory`` is given.
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often a run snapshots itself.

    ``every_ns`` is the epoch length in simulated nanoseconds; the run
    loop stops at every multiple of it and persists the full simulation
    state.  Files land in ``directory`` keyed by the config digest, so
    sweep points never collide and a re-run of the same config finds
    (and resumes from) its own state.
    """

    every_ns: int
    directory: Optional[str] = None

    def __post_init__(self) -> None:
        if self.every_ns <= 0:
            raise ValueError("checkpoint interval must be positive")

    @classmethod
    def every_ms(cls, ms: float, *,
                 directory: Optional[str] = None) -> "CheckpointConfig":
        """The CLI surface: ``--checkpoint-every`` takes simulated ms."""
        return cls(every_ns=round(ms * MILLISECOND), directory=directory)

    def resolve_path(self, config_digest: str) -> str:
        """The checkpoint file for the run identified by this digest."""
        directory = self.directory or DEFAULT_CHECKPOINT_DIR
        return os.path.join(directory, f"{config_digest[:16]}.ckpt")
