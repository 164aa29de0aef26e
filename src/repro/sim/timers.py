"""Restartable one-shot timers built on the event calendar.

Transports and the Vertigo ordering component need timers that are
frequently re-armed (RTO, pacing, reordering timeout).  ``Timer`` wraps
the re-arm (:meth:`~repro.sim.engine.Engine.reschedule`, in place
unless the deadline moves earlier) so the owning code never touches raw
:class:`~repro.sim.engine.Event` handles.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Engine, Event


class Timer:
    """A one-shot timer that can be (re)started, stopped, and queried."""

    __slots__ = ("_engine", "_callback", "_args", "_event")

    def __init__(self, engine: Engine, callback: Callable[..., Any],
                 *args: Any) -> None:
        self._engine = engine
        self._callback = callback
        self._args = args
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    @property
    def expires_at(self) -> Optional[int]:
        """Absolute expiry time in ns, or None when the timer is idle."""
        return self._event.time if self.armed else None

    def remaining(self) -> Optional[int]:
        """Nanoseconds until expiry, or None when the timer is idle."""
        if not self.armed:
            return None
        return max(0, self._event.time - self._engine.now)

    def start(self, delay: int) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` ns from now."""
        event = self._event
        if event is None or event.cancelled:
            self._event = self._engine.schedule(delay, self._fire)
        else:
            self._event = self._engine.reschedule(event, delay)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback(*self._args)
