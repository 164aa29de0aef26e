"""Trace policy attached to an :class:`ExperimentConfig`.

``TraceConfig`` lives apart from the recorder (:mod:`repro.trace.tracer`)
so that building a config never loads the tracing machinery: a run
imports the tracer only when its config asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Valid trace levels, in increasing verbosity.
TRACE_LEVELS = ("flow", "packet")


@dataclass(frozen=True)
class TraceConfig:
    """What to record and how much memory the recording may hold.

    ``max_events`` / ``max_samples`` bound the two record logs: each
    retains exactly its newest N records and discards older ones (the
    counts of everything ever emitted are kept, so exports report the
    loss).  The discipline is deterministic — same run, same retained
    window.
    """

    level: str = "flow"
    #: Periodic sampler interval; None disables the samplers.
    sample_period_ns: Optional[int] = None
    max_events: int = 1_000_000
    max_samples: int = 200_000

    def __post_init__(self) -> None:
        if self.level not in TRACE_LEVELS:
            raise ValueError(f"unknown trace level {self.level!r}; "
                             f"choose from {TRACE_LEVELS}")
        if self.sample_period_ns is not None and self.sample_period_ns <= 0:
            raise ValueError("sample period must be positive")
        if self.max_events <= 0 or self.max_samples <= 0:
            raise ValueError("ring buffer bounds must be positive")

    @property
    def packets(self) -> bool:
        return self.level == "packet"
