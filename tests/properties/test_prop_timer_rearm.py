"""Property-based tests: a timer re-armed in place runs exactly as one
that cancels and reschedules.

``Timer.start`` moves a pending event to the same or a later deadline
with ``Engine.reschedule`` (the old heap entry stays and is re-filed
when it surfaces) and cancels only for an earlier one.  The reference
below is the cancel-and-reschedule timer, stated once.  Random programs
mix ``schedule``, ``schedule_fast``, timer starts and stops (also from
inside callbacks), ``Event.cancel``, chunked ``run(until=)`` /
``run(max_events=)``, ``peek_time`` and ``pending``; both sides must
agree on the fire sequence ``(time, label)``, ``events_executed``,
``now``, ``pending()`` and every return value.

Recorded mutants this kills: a re-filed entry counted as an executed
event; a moved event keeping its old ``seq`` (same-time order breaks);
an earlier deadline moved lazily (the run loop meets it in the past).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import sanitize as _sanitize
from repro.sim.engine import Engine
from repro.sim.timers import Timer

N_TIMERS = 3
#: Times a timer re-arms itself from its own callback, at most.
SELF_REARMS = 2


class CancelTimer:
    """The reference: every start cancels the pending event and
    schedules a new one."""

    def __init__(self, engine, callback, *args):
        self._engine = engine
        self._callback = callback
        self._args = args
        self._event = None

    def start(self, delay):
        self.stop()
        self._event = self._engine.schedule(delay, self._fire)

    def stop(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self._callback(*self._args)


class World:
    """One engine driven by the program; ``timer_cls`` is the only
    difference between the two sides."""

    def __init__(self, timer_cls, rearms):
        self.engine = Engine()
        self.log = []
        self.handles = []
        self.rearms = list(rearms)
        self.timers = [timer_cls(self.engine, self._timer_fired, index)
                       for index in range(N_TIMERS)]

    def _timer_fired(self, index):
        self.log.append((self.engine.now, f"timer{index}"))
        delay = self.rearms[index]
        if delay is not None and self.log.count(
                (None, f"rearm{index}")) < SELF_REARMS:
            self.log.append((None, f"rearm{index}"))
            self.timers[index].start(delay)

    def _event_fired(self, label, action):
        self.log.append((self.engine.now, label))
        if action is not None:
            self.apply(action)

    def apply(self, op):
        kind = op[0]
        engine = self.engine
        if kind == "schedule":
            _, delay, label, action = op
            self.handles.append(engine.schedule(delay, self._event_fired,
                                                label, action))
        elif kind == "fast":
            _, delay, label, action = op
            engine.schedule_fast(delay, self._event_fired, label, action)
        elif kind == "start":
            self.timers[op[1]].start(op[2])
        elif kind == "stop":
            self.timers[op[1]].stop()
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "until":
            return engine.run(until=engine.now + op[1])
        elif kind == "budget":
            return engine.run(max_events=op[1])
        elif kind == "peek":
            return engine.peek_time()
        elif kind == "pending":
            return engine.pending()
        return None

    def state(self):
        engine = self.engine
        return (list(self.log), engine.now, engine.events_executed,
                engine.pending())


#: Short delays, so that deadlines often tie with other events.
_delay = st.integers(0, 12)
_timer = st.integers(0, N_TIMERS - 1)
_timer_op = st.one_of(
    st.tuples(st.just("start"), _timer, _delay),
    st.tuples(st.just("stop"), _timer))
_event_op = st.tuples(st.sampled_from(["schedule", "fast"]), _delay,
                      st.sampled_from(["a", "b", "c"]),
                      st.one_of(st.none(), _timer_op))
_op = st.one_of(
    _event_op, _timer_op, _timer_op,
    st.tuples(st.just("cancel"), st.integers(0, 20)),
    st.tuples(st.just("until"), st.integers(0, 15)),
    st.tuples(st.just("budget"), st.integers(1, 6)),
    st.tuples(st.just("peek")),
    st.tuples(st.just("pending")))


@given(st.lists(_op, max_size=60),
       st.lists(st.one_of(st.none(), _delay), min_size=N_TIMERS,
                max_size=N_TIMERS),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_in_place_rearm_matches_cancel_and_reschedule(program, rearms,
                                                      sanitize):
    with _sanitize.scoped(sanitize):
        real, reference = World(Timer, rearms), World(CancelTimer, rearms)
        for op in program:
            assert real.apply(op) == reference.apply(op), op
            assert real.state() == reference.state(), op
        assert real.engine.run() == reference.engine.run()
        assert real.state() == reference.state()
        assert real.engine.pending() == 0


def test_a_later_rearm_leaves_no_tombstone():
    engine = Engine()
    timer = Timer(engine, lambda: None)
    timer.start(100)
    for delay in range(101, 200):
        timer.start(delay)
    assert engine._cancelled == 0 and len(engine._heap) == 1
    timer.start(5)  # earlier: cancel and schedule
    assert engine._cancelled == 1 and engine.pending() == 1


def test_refiled_entries_only_move_later_under_the_sanitizer():
    with _sanitize.scoped(True):
        engine = Engine()
        event = engine.schedule(100, lambda: None)
        engine.reschedule(event, 200)
        event.time = 50  # what a lazy earlier move would leave
        with pytest.raises(_sanitize.SanitizerError, match="re-filed"):
            engine.run()
