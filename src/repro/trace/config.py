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
    """What to record: the trace level and the sampler period.

    How much the recording may hold is not an option: the tracer's
    ``MAX_EVENTS`` / ``MAX_SAMPLES`` bound its two record logs.
    """

    level: str = "flow"
    #: Periodic sampler interval; None disables the samplers.
    sample_period_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.level not in TRACE_LEVELS:
            raise ValueError(f"unknown trace level {self.level!r}; "
                             f"choose from {TRACE_LEVELS}")
        if self.sample_period_ns is not None and self.sample_period_ns <= 0:
            raise ValueError("sample period must be positive")

    @property
    def packets(self) -> bool:
        return self.level == "packet"
