"""The runtime invariant sanitizer (repro.analysis.sanitize).

Every check is exercised both ways: a healthy structure passes, a
deliberately corrupted one raises :class:`SanitizerError`.  All tests
toggle the sanitizer explicitly through ``scoped()`` so the suite is
state-independent — it passes identically under ``REPRO_SANITIZE=1``.
"""

import enum

import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizerError
from repro.core.ordering import OrderingComponent
from repro.core.scheduler import RankQueue
from repro.net.queues import DropTailQueue, RankedQueue
from repro.net.switch import MAX_HOPS
from repro.sim.engine import Engine
from repro.trace.config import TraceConfig
from repro.trace.tracer import Tracer
from repro.trace import tracer as tracer_mod
from tests.helpers import make_switch, mk_data


@pytest.fixture
def sanitized():
    with sanitize.scoped(True):
        yield


# -- toggling ------------------------------------------------------------------


def test_scoped_flips_state_and_restores():
    with sanitize.scoped(False):
        assert not sanitize.enabled()
        with sanitize.scoped(True):
            assert sanitize.enabled()
        assert not sanitize.enabled()


def test_toggle_rewrites_registered_module_flags():
    import repro.core.scheduler as scheduler_mod
    import repro.net.queues as queues_mod
    import repro.net.switch as switch_mod
    import repro.sim.engine as engine_mod

    with sanitize.scoped(True):
        assert engine_mod._SANITIZE
        assert queues_mod._SANITIZE
        assert scheduler_mod._SANITIZE
        assert switch_mod._SANITIZE
    with sanitize.scoped(False):
        assert not engine_mod._SANITIZE
        assert not queues_mod._SANITIZE


def test_checks_run_increments_only_while_enabled():
    engine = Engine()
    with sanitize.scoped(True):
        before = sanitize.checks_run
        engine.schedule(1, lambda: None)
        assert sanitize.checks_run > before
    with sanitize.scoped(False):
        before = sanitize.checks_run
        engine.schedule(1, lambda: None)
        assert sanitize.checks_run == before


def test_check_formats_message():
    with pytest.raises(SanitizerError, match="q7 off by 3"):
        sanitize.check(False, "%s off by %d", "q7", 3)


# -- engine: event-time discipline ---------------------------------------------


def test_engine_rejects_float_delay(sanitized):
    engine = Engine()
    with pytest.raises(SanitizerError, match="int"):
        engine.schedule(1.5, lambda: None)


def test_engine_rejects_non_callable(sanitized):
    engine = Engine()
    with pytest.raises(SanitizerError, match="callable"):
        engine.schedule(1, 42)


def test_engine_clean_run_passes(sanitized):
    engine = Engine()
    fired = []
    engine.schedule(5, fired.append, 1)
    engine.schedule(3, fired.append, 2)
    engine.run()
    assert fired == [2, 1]


# -- queues: byte accounting ---------------------------------------------------


def test_droptail_accounting_clean(sanitized):
    queue = DropTailQueue(10_000)
    queue.push(mk_data(payload=1000))
    queue.pop()


def test_droptail_detects_tampered_bytes(sanitized):
    queue = DropTailQueue(10_000)
    queue.push(mk_data(payload=1000))
    queue.bytes += 40  # corrupt the tracked total
    with pytest.raises(SanitizerError, match="tracked"):
        queue.push(mk_data(payload=500))


def test_ranked_queue_detects_tampered_bytes(sanitized):
    queue = RankedQueue(10_000)
    queue.push(mk_data(payload=1000))
    queue.bytes -= 1
    with pytest.raises(SanitizerError, match="tracked"):
        queue.pop()


def test_ranked_queue_detects_tampered_order(sanitized):
    # A port's sorted array is its own, held to RankQueue's invariants.
    queue = RankedQueue(10_000)
    queue.push(mk_data(payload=1000))
    queue.push(mk_data(payload=500))
    queue._entries.reverse()
    with pytest.raises(SanitizerError, match="order"):
        queue.push(mk_data(payload=700))


# -- rank queue: sorted-array invariants ---------------------------------------


def test_rankqueue_clean_operations(sanitized):
    rq = RankQueue()
    rq.push(5, "a")
    rq.push(1, "b")
    rq.push(9, "c")
    assert rq.pop_min() == (1, "b")
    assert rq.pop_max() == (9, "c")


def test_rankqueue_detects_tampered_entries(sanitized):
    rq = RankQueue()
    rq.push(5, "a")
    rq.push(9, "b")
    rq._entries.reverse()  # corrupt the order
    with pytest.raises(SanitizerError, match="order"):
        rq.push(7, "c")


def test_rankqueue_detects_foreign_entry(sanitized):
    rq = RankQueue()
    rq.push(5, "a")
    rq._entries.insert(0, (-9, -40, "smuggled"))  # in order, never pushed
    with pytest.raises(SanitizerError, match="never issued"):
        rq.push(7, "b")


# -- switch: conservation ------------------------------------------------------


class _LeakyPolicy:
    """Routing policy that silently discards every packet."""

    def route(self, packet, in_port):
        pass


class _DuplicatingPolicy:
    """Routing policy that enqueues the same packet on two ports."""

    def __init__(self, switch):
        self.switch = switch

    def route(self, packet, in_port):
        self.switch.enqueue(0, packet)
        self.switch.enqueue(1, packet)


def test_switch_detects_vanishing_packet(sanitized):
    engine = Engine()
    switch, _, _ = make_switch(engine, n_host_ports=1)
    switch.policy = _LeakyPolicy()
    with pytest.raises(SanitizerError, match="lost or duplicated"):
        switch.receive(mk_data(dst=0), in_port=1)


def test_switch_detects_duplicated_packet(sanitized):
    engine = Engine()
    switch, _, _ = make_switch(engine, n_host_ports=2)
    switch.policy = _DuplicatingPolicy(switch)
    with pytest.raises(SanitizerError, match="lost or duplicated"):
        switch.receive(mk_data(dst=0), in_port=2)


def test_switch_conservation_passes_for_real_policy(sanitized):
    from repro.forwarding.ecmp import EcmpPolicy
    from tests.helpers import seeded_rng

    engine = Engine()
    switch, sinks, _ = make_switch(engine, n_host_ports=1)
    switch.policy = EcmpPolicy(switch, seeded_rng())
    packet = mk_data(dst=0)
    switch.receive(packet, in_port=1)
    engine.run()
    assert sinks[0].received == [packet]


def test_switch_drop_satisfies_conservation(sanitized):
    engine = Engine()
    switch, _, metrics = make_switch(engine)
    from repro.forwarding.ecmp import EcmpPolicy
    from tests.helpers import seeded_rng

    switch.policy = EcmpPolicy(switch, seeded_rng())
    packet = mk_data(dst=0)
    packet.hops = MAX_HOPS
    switch.receive(packet, in_port=1)  # hop-limit drop, still conserved
    assert metrics.counters.drops["hop_limit"] == 1


# -- ordering: release exactly once --------------------------------------------


def test_ordering_double_release_detected():
    engine = Engine()
    delivered = []
    with sanitize.scoped(True):
        # The shim binds its instrumentation at construction time.
        ordering = OrderingComponent(engine, delivered.append)
        packet = mk_data()
        ordering.deliver(packet)
        with pytest.raises(SanitizerError, match="twice"):
            ordering.deliver(packet)
    assert delivered == [packet]


def test_ordering_distinct_packets_pass():
    engine = Engine()
    delivered = []
    with sanitize.scoped(True):
        ordering = OrderingComponent(engine, delivered.append)
        first, second = mk_data(seq=0), mk_data(seq=1)
        ordering.deliver(first)
        ordering.deliver(second)
    assert delivered == [first, second]


def test_ordering_unsanitized_has_no_wrapper():
    engine = Engine()
    delivered = []
    with sanitize.scoped(False):
        ordering = OrderingComponent(engine, delivered.append)
    assert ordering.deliver == delivered.append


# -- trace log: whole records, chunk by chunk -----------------------------------


def test_trace_log_clean_recording_passes(sanitized, monkeypatch):
    monkeypatch.setattr(tracer_mod, "CHUNK_RECORDS", 4)
    monkeypatch.setattr(tracer_mod, "MAX_EVENTS", 6)
    tracer = Tracer()
    for i in range(11):                       # seals two chunks, trims
        tracer.record(("flow.end", i, i, i))
    assert [record[1] for record in tracer.detach().events] \
        == [5, 6, 7, 8, 9, 10]


def test_trace_log_detects_tampered_sealed_chunk(sanitized, monkeypatch):
    """One value too many (what a site with a wrong arity lays down)
    shifts every later record start off a kind: caught when the chunk
    is sealed."""
    monkeypatch.setattr(tracer_mod, "CHUNK_RECORDS", 4)
    tracer = Tracer(TraceConfig())
    tracer.record(("flow.end", 1, 1, 1))
    tracer._events.open.append(99)
    tracer.record(("flow.end", 2, 2, 2))
    tracer.record(("flow.end", 3, 3, 3))
    with pytest.raises(SanitizerError, match="99 at offset 4 is not a "
                                             "record kind"):
        tracer.record(("flow.end", 4, 4, 4))


class _Flow(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("record, named", [
    (("flow.end", 1, _Flow.ONE, 5), "flow.end field 'flow'"),
    (("cc.rto", _Flow.ONE, 1, 5), "cc.rto field 't'"),
], ids=["field", "time"])
def test_trace_log_names_a_value_the_exporter_cannot_write(
        sanitized, monkeypatch, record, named):
    """An ``IntEnum`` passes for an int to everything but the exporter
    (whose writers go by exact type) and pickle (which would store a
    reference to its class): caught at the seal, naming kind and field."""
    monkeypatch.setattr(tracer_mod, "CHUNK_RECORDS", 2)
    tracer = Tracer(TraceConfig())
    tracer.record(("flow.end", 0, 0, 0))
    with pytest.raises(SanitizerError, match=named):
        tracer.record(record)


def test_trace_log_names_a_nested_container_at_detach(sanitized):
    """The ``cc`` detail is a tuple of plain values; a list inside it is
    caught in the open chunk, when the tracer detaches."""
    tracer = Tracer(TraceConfig())
    tracer.sample_tick(["sample.flow", 1, "h0", 1, 10.0, 5, 1, 1,
                        ("dctcp", [0.5])], {"sample.flow": 1})
    with pytest.raises(SanitizerError, match="sample.flow field 'cc'"):
        tracer.detach()


def test_trace_log_detects_short_record_at_detach(sanitized):
    tracer = Tracer(TraceConfig())
    tracer.record(("flow.end", 1, 1, 1))
    del tracer._events.open[-1]
    with pytest.raises(SanitizerError, match="1 records ending at 4, "
                                             "expected 1 ending at 3"):
        tracer.detach()
