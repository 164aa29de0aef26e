"""Event calendar and simulation loop."""

import pytest

from repro.sim.engine import COMPACTION_MIN_ENTRIES, Engine
from repro.sim.timers import Timer


def test_events_run_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(30, order.append, "c")
    engine.schedule(10, order.append, "a")
    engine.schedule(20, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 30


def test_same_time_events_run_fifo():
    engine = Engine()
    order = []
    for tag in range(5):
        engine.schedule(100, order.append, tag)
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_breaks_ties():
    engine = Engine()
    order = []
    engine.schedule(100, order.append, "low", priority=5)
    engine.schedule(100, order.append, "high", priority=-5)
    engine.run()
    assert order == ["high", "low"]


def test_cancelled_events_do_not_run():
    engine = Engine()
    order = []
    event = engine.schedule(10, order.append, "x")
    engine.schedule(5, order.append, "y")
    event.cancel()
    engine.run()
    assert order == ["y"]


def test_run_until_stops_and_advances_clock():
    engine = Engine()
    order = []
    engine.schedule(10, order.append, 1)
    engine.schedule(100, order.append, 2)
    executed = engine.run(until=50)
    assert executed == 1
    assert order == [1]
    assert engine.now == 50  # clock advanced to the horizon
    engine.run()
    assert order == [1, 2]


def test_events_scheduled_during_run_execute():
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule(5, order.append, "nested")

    engine.schedule(10, first)
    engine.run()
    assert order == ["first", "nested"]
    assert engine.now == 15


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_schedule_at_absolute_time():
    engine = Engine()
    seen = []
    engine.schedule_at(42, seen.append, "x")
    engine.run()
    assert engine.now == 42
    assert seen == ["x"]


def test_pending_counts_live_events():
    engine = Engine()
    keep = engine.schedule(10, lambda: None)
    drop = engine.schedule(20, lambda: None)
    drop.cancel()
    assert engine.pending() == 1
    assert keep is not None


def test_peek_time_skips_cancelled():
    engine = Engine()
    first = engine.schedule(5, lambda: None)
    engine.schedule(9, lambda: None)
    first.cancel()
    assert engine.peek_time() == 9


def test_max_events_bound():
    engine = Engine()
    for _ in range(10):
        engine.schedule(1, lambda: None)
    executed = engine.run(max_events=3)
    assert executed == 3
    assert engine.pending() == 7


def test_run_until_leaves_the_next_event_pending_with_its_key():
    engine = Engine()
    order = []
    engine.schedule(10, order.append, "at-horizon")
    late = engine.schedule(11, order.append, "late", priority=3)
    engine.schedule_fast(11, order.append, "late-fast")
    key = (late.time, late.priority, late.seq)
    assert engine.run(until=10) == 1
    assert order == ["at-horizon"] and engine.now == 10
    assert engine.pending() == 2 and engine.peek_time() == 11
    # The entry looked at and put back is the very one scheduled.
    assert [entry[:3] for entry in engine._heap if entry[5] is late] == [key]
    assert engine.run(until=10) == 0  # looking again changes nothing
    assert engine.pending() == 2
    engine.run()
    # Priority 0 (the fast path) still runs before priority 3.
    assert order == ["at-horizon", "late-fast", "late"]


def test_max_events_executes_exactly_that_many():
    engine = Engine()
    order = []
    dead = engine.schedule(1, order.append, "cancelled")
    for tag in range(5):
        engine.schedule_fast(2 + tag, order.append, tag)
    dead.cancel()  # a skipped tombstone is not an executed event
    assert engine.run(max_events=2) == 2
    assert order == [0, 1] and engine.now == 3
    assert engine.run(max_events=2) == 2
    assert engine.run(max_events=2) == 1
    assert order == [0, 1, 2, 3, 4] and engine.events_executed == 5


def test_budget_stop_does_not_jump_the_clock_past_pending_events():
    engine = Engine()
    order = []
    engine.schedule(5, order.append, 5)
    engine.schedule(10, order.append, 10)
    assert engine.run(until=100, max_events=1) == 1
    assert engine.now == 5 and engine.pending() == 1
    assert engine.run() == 1  # was: "event scheduled in the past"
    assert order == [5, 10] and engine.now == 10
    # Ending on the horizon or an empty calendar still advances to it.
    assert engine.run(until=100, max_events=1) == 0
    assert engine.now == 100


def test_events_executed_accumulates():
    engine = Engine()
    engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    engine.run()
    assert engine.events_executed == 2


# -- tuple fast path ---------------------------------------------------------


def test_fast_path_runs_in_time_order_with_events():
    engine = Engine()
    order = []
    engine.schedule(30, order.append, "c")
    engine.schedule_fast(10, order.append, "a")
    engine.schedule(20, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 30


def test_fast_path_interleaves_fifo_with_event_path():
    # Same timestamp: both paths share one sequence counter, so execution
    # order is exactly insertion order (priority still wins first).
    engine = Engine()
    order = []
    engine.schedule(10, order.append, "a")
    engine.schedule_fast(10, order.append, "b")
    engine.schedule(10, order.append, "d", priority=5)
    engine.schedule_fast(10, order.append, "c")
    engine.run()
    assert order == ["a", "b", "c", "d"]


def test_fast_path_counts_and_clock():
    engine = Engine()
    engine.schedule_fast(7, lambda: None)
    assert engine.pending() == 1
    assert engine.peek_time() == 7
    engine.run()
    assert engine.now == 7
    assert engine.events_executed == 1


def test_fast_path_negative_delay_rejected():
    with pytest.raises(ValueError):
        Engine().schedule_fast(-1, lambda: None)


def test_fast_path_survives_cancellation_around_it():
    engine = Engine()
    order = []
    doomed = engine.schedule(10, order.append, "doomed")
    engine.schedule_fast(10, order.append, "kept")
    doomed.cancel()
    engine.run()
    assert order == ["kept"]


# -- lazy cancellation + heap compaction -------------------------------------


def test_retransmit_timer_resets_bound_heap_growth():
    # The pathological pattern from transports: the RTO timer is re-armed
    # on every ACK, cancelling the previous event each time.  Without
    # compaction the calendar keeps every tombstone (10k entries here).
    engine = Engine()
    fired = []
    rto = Timer(engine, fired.append, "rto")
    for _ in range(10_000):
        rto.start(1_000)
    assert len(engine._heap) <= 2 * COMPACTION_MIN_ENTRIES
    assert engine.pending() == 1
    engine.run()
    assert fired == ["rto"]
    assert engine.now == 1_000


def test_compaction_drops_tombstones_and_keeps_order():
    engine = Engine()
    fired = []
    events = [engine.schedule(1_000 + i, fired.append, i)
              for i in range(200)]
    for event in events[:150]:
        event.cancel()  # >50% cancelled on a big heap -> compaction
    assert len(engine._heap) < 150  # tombstones physically removed
    engine.run()
    assert fired == list(range(150, 200))


def test_small_heaps_never_compact():
    # Below the size floor tombstones are only dropped lazily at pop
    # time, so tiny calendars never pay the compaction churn.
    engine = Engine()
    events = [engine.schedule(10 + i, lambda: None) for i in range(10)]
    for event in events:
        event.cancel()
    assert len(engine._heap) == 10
    assert engine.pending() == 0
    engine.run()
    assert engine.events_executed == 0
