"""Supervision policy: retries, backoff, and per-run deadlines.

A :class:`SupervisorPolicy` is the knob set of the crash-tolerant sweep
runtime (:mod:`repro.runtime.supervisor`): how many times a failing run
is retried, how long a run may take before it is killed, and how retry
backoff is spaced.

Backoff is exponential with jitter, but the jitter draws from a **named,
seeded RNG stream** (``RngRegistry(seed).stream("runtime.backoff")``) so
the retry schedule of a supervised sweep is itself deterministic — the
same failures produce the same waits, run after run.  Backoff never
touches any simulation stream: the supervisor lives entirely outside
simulated time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.sim.rng import RngRegistry

#: Named RNG streams this module owns (checked by lint rule VR110).
RNG_STREAMS = ("runtime.backoff",)

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
    #: First backoff interval; doubles per retry up to :attr:`backoff_cap_s`.
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 8.0
    #: Seed of the named RNG stream the backoff jitter draws from.
    backoff_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise ValueError("run_timeout_s must be positive (or None)")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff intervals cannot be negative")

    def backoff_stream(self) -> random.Random:
        """The named, seeded jitter stream (fresh per supervised sweep)."""
        return RngRegistry(self.backoff_seed).stream("runtime.backoff")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Wait before retry ``attempt`` (1-based): capped exponential
        backoff, jittered to 50–100 % of the nominal interval."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        nominal = min(self.backoff_cap_s,
                      self.backoff_base_s * (2 ** (attempt - 1)))
        return nominal * (0.5 + 0.5 * rng.random())
