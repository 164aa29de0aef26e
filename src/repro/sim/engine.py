"""Event calendar and simulation loop.

The engine stores events in a binary heap of plain tuples keyed by
``(time, priority, sequence)``.  The sequence number makes ordering of
same-time, same-priority events FIFO and fully deterministic, which is
essential for reproducible experiments — and, being unique, it also
guarantees heap comparisons never fall through to the trailing payload
fields, so entries compare as native tuples entirely in C.

Two scheduling paths share the calendar:

- :meth:`Engine.schedule` returns a cancellable :class:`Event` handle
  (timers, anything that may be re-armed).  Cancellation is lazy: the
  heap entry stays in place as a tombstone and is skipped when popped.
- :meth:`Engine.schedule_fast` is the allocation-free fast path for the
  dominant case — callbacks that are never cancelled (packet arrivals,
  transmit completions).  No handle object is created; the tuple goes
  straight into the heap.

A re-arm to the same or a later deadline (a transport pushing its
retransmission timer back on every ACK) moves in place, so tombstones
come only from cancellation; the calendar compacts itself whenever more
than half of a non-trivial heap is cancelled, keeping memory and
heap-sift costs proportional to the *live* event count.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.analysis import sanitize as _sanitize
from repro.trace import hooks as _trace_hooks

_SANITIZE = _sanitize.register(__name__)
_TRACE = _trace_hooks.register(__name__)

#: Compaction triggers only above this heap size, so tiny calendars never
#: churn; above it, compaction runs when >50% of entries are cancelled.
COMPACTION_MIN_ENTRIES = 64

#: Sentinels letting the run loop test its bounds with single int
#: comparisons instead of ``is not None`` checks per event.
_NO_HORIZON = 1 << 62
_NO_LIMIT = 1 << 62


class Event:
    """A cancellable scheduled callback.

    Events are returned by :meth:`Engine.schedule` and may be cancelled.
    Cancellation is lazy: the heap entry stays in place and is skipped
    when popped (the calendar compacts itself when tombstones dominate).
    ``time``/``seq`` are its key; its heap entry may lag (``reschedule``).
    """

    __slots__ = ("engine", "time", "priority", "seq", "fn", "args",
                 "cancelled")

    def __init__(self, engine: "Engine", time: int, priority: int, seq: int,
                 fn: Callable[..., Any], args: tuple):
        self.engine = engine
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        engine = self.engine
        engine._cancelled += 1
        heap = engine._heap
        if len(heap) >= COMPACTION_MIN_ENTRIES \
                and engine._cancelled * 2 > len(heap):
            engine._compact()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} prio={self.priority}{state} {self.fn}>"


class RecurringEvent:
    """A self-rescheduling periodic callback (see Engine.schedule_every)."""

    __slots__ = ("engine", "interval_ns", "fn", "args", "priority", "_event",
                 "stopped")

    def __init__(self, engine: "Engine", interval_ns: int,
                 fn: Callable[..., Any], args: tuple, priority: int) -> None:
        self.engine = engine
        self.interval_ns = interval_ns
        self.fn = fn
        self.args = args
        self.priority = priority
        self._event: Optional[Event] = None
        self.stopped = False

    def _arm(self) -> None:
        self._event = self.engine.schedule(self.interval_ns, self._fire,
                                           priority=self.priority)

    def _fire(self) -> None:
        if self.stopped:
            return
        self._arm()
        self.fn(*self.args)

    def stop(self) -> None:
        if self.stopped:
            return
        self.stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None


class Engine:
    """Discrete-event simulation engine with an integer nanosecond clock."""

    def __init__(self) -> None:
        #: Heap entries are ``(time, priority, seq, fn, args, event)``
        #: where ``event`` is None for the fast path.  ``seq`` is unique,
        #: so comparisons never reach ``fn``.
        self._heap: list = []
        self._seq = 0
        self._cancelled = 0
        self.now: int = 0
        self._running = False
        self.events_executed = 0

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any,
                 priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now.

        ``priority`` breaks ties among same-time events (lower runs first);
        the default of 0 is fine for nearly all uses.  The returned
        :class:`Event` may be cancelled; callers that never cancel should
        prefer :meth:`schedule_fast`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if _SANITIZE:
            _sanitize.check(type(delay) is int,
                            "schedule() delay must be an integer nanosecond "
                            "count, got %r (%s)", delay, type(delay).__name__)
            _sanitize.check(callable(fn),
                            "schedule() callback %r is not callable", fn)
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(self, time, priority, seq, fn, args)
        heapq.heappush(self._heap, (time, priority, seq, fn, args, event))
        return event

    def reschedule(self, event: Event, delay: int) -> Event:
        """Give pending ``event`` the key :meth:`schedule` would (``delay``
        ns from now, a fresh ``seq``) and return it, moved in place — the
        run loop re-files its old heap entry — unless the new time is
        earlier: then it is cancelled and a new event returned."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if _SANITIZE:
            _sanitize.check(type(delay) is int and not event.cancelled,
                            "reschedule() needs a pending event and an "
                            "integer delay, got %r, %r", event, delay)
        time = self.now + delay
        if time < event.time:
            event.cancel()
            return self.schedule(delay, event.fn, *event.args,
                                 priority=event.priority)
        event.time = time
        event.seq = self._seq
        self._seq += 1
        return event

    def schedule_fast(self, delay: int, fn: Callable[..., Any],
                      *args: Any) -> None:
        """Schedule a callback that will never be cancelled (priority 0).

        Identical ``(time, priority, seq)`` FIFO semantics to
        :meth:`schedule`, but no :class:`Event` handle is allocated —
        this is the per-packet hot path (link deliveries, transmit
        completions account for the overwhelming majority of events).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if _SANITIZE:
            _sanitize.check(type(delay) is int,
                            "schedule_fast() delay must be an integer "
                            "nanosecond count, got %r (%s)", delay,
                            type(delay).__name__)
            _sanitize.check(callable(fn),
                            "schedule_fast() callback %r is not callable", fn)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self.now + delay, 0, seq, fn, args, None))

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any,
                    priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        return self.schedule(time - self.now, fn, *args, priority=priority)

    def schedule_every(self, interval_ns: int, fn: Callable[..., Any],
                       *args: Any, priority: int = 0) -> "RecurringEvent":
        """Run ``fn(*args)`` every ``interval_ns`` ns until stopped.

        The first firing is one interval from now.  Each tick re-arms
        itself *before* invoking the callback, so a callback may stop
        the returned handle to terminate the series.
        """
        if interval_ns <= 0:
            raise ValueError("recurring interval must be positive")
        handle = RecurringEvent(self, interval_ns, fn, args, priority)
        handle._arm()
        return handle

    def _compact(self) -> None:
        """Drop cancelled tombstones and re-heapify.

        In place (slice assignment) so that a :meth:`run` loop holding a
        reference to the heap list keeps seeing the compacted calendar.
        """
        self._heap[:] = [entry for entry in self._heap
                         if entry[5] is None or not entry[5].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap:
            time, _, seq, fn, args, event = heap[0]
            if event is None or event.seq == seq and not event.cancelled:
                return time
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
            else:  # moved later in place: re-file under its key
                heapq.heapreplace(heap, (event.time, event.priority,
                                         event.seq, fn, args, event))
        return None

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until the calendar empties or ``until`` is reached.

        Returns the number of events executed during this call.  When
        ``until`` is given the clock is advanced to exactly ``until`` on
        return, even if the calendar drained earlier — unless the
        ``max_events`` budget stopped the run first: events may still be
        pending before ``until``, so the clock stays at the last one run.
        """
        executed = 0
        out_of_budget = False
        self._running = True
        span_start = self.now  # for the once-per-call trace span, not per event
        heap = self._heap
        pop = heapq.heappop
        horizon = _NO_HORIZON if until is None else until
        limit = _NO_LIMIT if max_events is None else max_events
        # Callbacks read ``self.now``; only this loop writes it, so a
        # local mirror serves the loop's own comparisons.  The sanitizer
        # flag is rewritten between runs, never during one.
        now = self.now
        sanitize = _SANITIZE
        try:
            while heap:
                entry = pop(heap)
                time, _, seq, fn, args, event = entry
                if event is not None:
                    if event.cancelled:
                        self._cancelled -= 1
                        continue
                    if event.seq != seq:  # moved later: re-file, uncounted
                        if sanitize:
                            _sanitize.check(
                                (event.time, event.seq) > (time, seq),
                                "re-filed event %r moved earlier", event)
                        heapq.heappush(heap, (event.time, event.priority,
                                              event.seq, fn, args, event))
                        continue
                if time > horizon:
                    # The one entry beyond the horizon goes back with its
                    # original (time, priority, seq) key.
                    heapq.heappush(heap, entry)
                    break
                if sanitize:
                    _sanitize.check(type(time) is int,
                                    "event time must be an integer "
                                    "nanosecond count, got %r", time)
                    _sanitize.check(time >= now,
                                    "event calendar ran backwards: "
                                    "%r < now=%d", time, now)
                if time < now:  # pragma: no cover - invariant
                    raise RuntimeError("event scheduled in the past")
                self.now = now = time
                fn(*args)
                executed += 1
                if executed >= limit:
                    out_of_budget = True
                    break
        finally:
            self._running = False
        if until is not None and not out_of_budget and self.now < until:
            self.now = until
        self.events_executed += executed
        if _TRACE is not None:
            _TRACE.engine_span(self.now, span_start, executed)
        return executed

    def pending(self) -> int:
        """Number of live (non-cancelled) events still in the calendar."""
        return sum(1 for entry in self._heap
                   if entry[5] is None or not entry[5].cancelled)
