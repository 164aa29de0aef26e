"""The transport's own datapath: what one ACK may cost.

A small fixed-seed ecmp+dctcp incast with drops, fast retransmits and
RTOs is run once, with the per-ACK machinery spied on.  The budgets say
"per-run constants are paid once": a timer re-armed to a later deadline
moves in place (no tombstone, no new ``Event``), a pure-window sender
never asks for a pacing gap, and a receiver holds its flow record
instead of looking it up per data packet.
"""

import sys

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine, Event
from repro.sim.timers import Timer
from repro.sim.units import MILLISECOND
from repro.transport.base import FlowSender
from repro.transport.dcqcn import DcqcnSender
from repro.transport.dctcp import DctcpSender
from repro.transport.reno import RenoSender
from repro.transport.swift import SwiftSender


def _config():
    return ExperimentConfig.bench_profile(
        system="ecmp", transport="dctcp", bg_load=0.5, incast_load=0.35,
        sim_time_ns=25 * MILLISECOND, seed=1)


class _SpiedFlows(dict):
    """``MetricsCollector.flows`` that records who calls ``get``."""

    callers = None

    def get(self, *args):
        frame = sys._getframe(1)
        self.callers.append((frame.f_code.co_name, frame.f_code.co_filename))
        return super().get(*args)


@pytest.fixture(scope="module")
def spied_run():
    record = {"start_cancels": 0, "timer_schedules": 0, "idle_starts": 0,
              "later_rearms": 0, "earlier_rearms": 0, "paced_calls": [],
              "flows_get": [], "rtos": 0}
    real_cancel, real_schedule = Event.cancel, Engine.schedule
    real_start, real_gap = Timer.start, FlowSender.pacing_gap_ns
    real_metrics_init, real_on_rto = MetricsCollector.__init__, \
        FlowSender._on_rto
    in_start = []

    def spy_cancel(self):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "stop" \
                and caller.f_back.f_code.co_name == "start" \
                and caller.f_back.f_code.co_filename.endswith("timers.py"):
            record["start_cancels"] += 1
        real_cancel(self)

    def spy_schedule(self, *args, **kwargs):
        if in_start:
            record["timer_schedules"] += 1
        return real_schedule(self, *args, **kwargs)

    def spy_start(self, delay):
        event = self._event
        if event is None or event.cancelled:
            record["idle_starts"] += 1
        elif self._engine.now + delay >= event.time:
            record["later_rearms"] += 1
        else:
            record["earlier_rearms"] += 1
        in_start.append(True)
        try:
            real_start(self, delay)
        finally:
            in_start.pop()

    def spy_gap(self):
        record["paced_calls"].append(type(self).__name__)
        return real_gap(self)

    def spy_metrics_init(self, *args, **kwargs):
        real_metrics_init(self, *args, **kwargs)
        self.flows = _SpiedFlows()
        self.flows.callers = record["flows_get"]

    def spy_on_rto(self):
        record["rtos"] += bool(self._segments) and not self.completed
        real_on_rto(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Event, "cancel", spy_cancel)
        patch.setattr(Engine, "schedule", spy_schedule)
        patch.setattr(Timer, "start", spy_start)
        patch.setattr(FlowSender, "pacing_gap_ns", spy_gap)
        patch.setattr(MetricsCollector, "__init__", spy_metrics_init)
        patch.setattr(FlowSender, "_on_rto", spy_on_rto)
        record["result"] = run_experiment(_config())
    return record


def test_the_run_exercises_what_is_asserted(spied_run):
    counters = spied_run["result"].metrics.counters
    assert counters.total_drops > 0 and counters.retransmissions > 0
    assert spied_run["rtos"] > 0
    assert spied_run["later_rearms"] > 1000
    assert spied_run["earlier_rearms"] > 0
    assert spied_run["result"].config.transport.delayed_ack is False


def test_timer_start_never_cancels_through_stop(spied_run):
    assert spied_run["start_cancels"] == 0


def test_timer_schedules_only_from_idle_or_for_an_earlier_deadline(
        spied_run):
    # A later re-arm moves its event in place: no new Event.
    assert spied_run["timer_schedules"] \
        <= spied_run["idle_starts"] + spied_run["earlier_rearms"]


def test_pure_window_senders_never_ask_for_a_pacing_gap(spied_run):
    assert not spied_run["paced_calls"]  # every sender here is DCTCP
    assert not RenoSender.paced and not DctcpSender.paced
    assert SwiftSender.paced and DcqcnSender.paced


def test_receivers_hold_their_flow_record(spied_run):
    assert not [name for name, path in spied_run["flows_get"]
                if name == "on_data" and path.endswith("base.py")]
    # The run still reads the record per data packet, through the
    # receiver: every completed flow delivered all of its bytes.
    flows = spied_run["result"].metrics.flows.values()
    done = [record for record in flows if record.end_ns is not None]
    assert done and all(record.bytes_delivered == record.size
                        for record in done)
