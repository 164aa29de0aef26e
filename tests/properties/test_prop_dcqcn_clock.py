"""Property-based tests: DCQCN's lazy rate clock against an eager one.

``DcqcnSender`` never schedules its increase clock: every reader first
applies the ``(now - epoch) // period`` ticks that are due.  The model
below is the sender as it used to be — a timer that fires every period
— stated in the obvious way; after every operation of a random
interleaving the two must agree on everything the clock moves, reads
landing exactly on a period boundary included (a tick due at *t* runs
before anything the flow does at *t*).

Mutants of ``dcqcn.py`` this file was checked to kill: ``>`` for ``>=``
in ``pacing_gap_ns``; ``(now - epoch - 1) // period``; no catch-up in
``_cut_rate`` (the marked-window cut and the RTO cut), in ``cc_state``,
in ``stop``; ``stop`` that does not stop the clock; the epoch advanced
to ``now`` instead of ``epoch + ticks * period``; no restart of the
epoch in ``start``; the cached gap left stale after a cut, after ticks.
"""

from hypothesis import example, given, settings, strategies as st

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.transport.base import TransportConfig
from repro.transport.dcqcn import ALPHA_UNIT, DcqcnSender
from tests.unit.test_transport_base import StubHost

LINE_RATE = 200_000_000
PERIOD = 55_000
WIRE_NS = 1500 * 8 * 1_000_000_000  # one full segment, in bit-ns
FAST = DcqcnSender.FAST_RECOVERY_STAGES
SHIFT = DcqcnSender.ALPHA_G_SHIFT


class EagerSender:
    """The rate state behind a timer that fires every period."""

    def __init__(self):
        self.rate = self.target = LINE_RATE
        self.alpha, self.stage = ALPHA_UNIT, 0
        self.timer = None  # absolute expiry; armed by start and the cuts

    def advance(self, now):
        """Fire every expiry up to and including ``now``."""
        while self.timer is not None and self.timer <= now:
            if self.stage >= FAST:
                self.target += LINE_RATE // (20 if self.stage >= 2 * FAST
                                             else 200)
            self.stage += 1
            self.rate = (self.rate + self.target) // 2
            self.timer += PERIOD

    def window_closed(self, now, marked):
        self.alpha += ((ALPHA_UNIT if marked else 0) >> SHIFT) \
            - (self.alpha >> SHIFT)
        if marked:
            self.cut(now, self.rate * (2 * ALPHA_UNIT - self.alpha)
                     // (2 * ALPHA_UNIT))

    def cut(self, now, rate):
        self.target = self.rate
        self.rate = max(DcqcnSender.MIN_RATE_BPS, rate)
        self.stage = 0
        self.timer = now + PERIOD

    def state(self):
        return (self.rate, self.target, self.stage, self.alpha,
                WIRE_NS // self.rate)


#: Steps that land reads on, just before and just after a period
#: boundary, and far enough out to cross every increase stage.
steps = st.one_of(
    st.sampled_from([0, 1, PERIOD - 1, PERIOD, PERIOD + 1, 2 * PERIOD,
                     7 * PERIOD, 23 * PERIOD + 5]),
    st.integers(0, 3 * PERIOD))
operations = st.lists(
    st.tuples(steps, st.sampled_from(["gap", "gap", "cc", "ack", "marked",
                                      "rto", "stop"])),
    max_size=60)


@settings(max_examples=200, deadline=None)
@given(steps, operations)
# Reads landing exactly on the boundary, after a start and after a cut.
@example(3, [(PERIOD, "gap")])
@example(0, [(7, "rto"), (PERIOD, "gap"), (PERIOD, "cc")])
@example(0, [(PERIOD - 1, "marked"), (2 * PERIOD, "stop"), (PERIOD, "cc")])
def test_lazy_clock_matches_the_eager_timer(start_at, ops):
    engine = Engine()
    # One segment: start() transmits it and arms nothing but the RTO
    # timer (1 s out, beyond any interleaving), so every read below is
    # the test's own.
    sender = DcqcnSender(engine, StubHost(engine, 1), 7, 2, 1000,
                         TransportConfig(dcqcn_rate_bps=LINE_RATE,
                                         dcqcn_timer_ns=PERIOD),
                         MetricsCollector())
    model = EagerSender()
    engine.run(until=start_at)
    sender.start()
    sender.snd_una = sender.snd_nxt  # every ACK below closes a window
    model.timer = start_at + PERIOD
    stopped = False
    for step, op in ops:
        engine.run(until=engine.now + step)
        now = engine.now
        model.advance(now)
        if op == "gap":
            assert sender.pacing_gap_ns() == model.state()[4]
        elif op == "cc":
            assert sender.cc_state() == ("dcqcn", model.rate, model.alpha)
        elif stopped:
            continue  # a stopped flow gets no more feedback
        elif op == "stop":
            sender.stop()
            model.timer = None
            stopped = True
        elif op == "rto":
            sender.on_rto_cc()
            model.cut(now, model.rate // 2)
        else:
            sender.on_new_ack_cc(1000, None, op == "marked")
            model.window_closed(now, op == "marked")
        if op == "ack":
            # An unmarked window moves only alpha and may leave the
            # ticks for the next reader.
            assert sender.alpha_fp == model.alpha
        else:
            assert (sender.rate_bps, sender.target_rate_bps, sender._stage,
                    sender.alpha_fp, sender._gap_ns) == model.state()
