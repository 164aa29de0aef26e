"""Supervision policy: retries and per-run deadlines.

A :class:`SupervisorPolicy` is the knob set of the crash-tolerant sweep
runtime (:mod:`repro.runtime.supervisor`): how many times a failing run
is retried and how long a run may take before it is killed.  A retry
runs at once: an attempt is a seeded function of its config, run in a
reaped or fresh pool, so no wait could free anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

#: Terminal classifications of one sweep point under supervision.
#: ``aborted`` marks points cancelled by an interrupt before finishing.
RUN_STATUSES = ("ok", "timeout", "crashed", "failed", "aborted")


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the sweep supervisor treats failing or stuck runs."""

    #: Retry attempts granted after the first try (0 = never retry).
    max_retries: int = 2
    #: Per-run wall-clock deadline in seconds: an overdue attempt is
    #: SIGKILLed.  None runs every attempt to its end.
    run_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.max_retries) and self.max_retries >= 0):
            raise ValueError("max_retries must be finite and >= 0")
        if self.run_timeout_s is not None and not (
                math.isfinite(self.run_timeout_s) and self.run_timeout_s > 0):
            raise ValueError("run_timeout_s must be finite and > 0 (or None)")
