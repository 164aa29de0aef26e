"""What a flow costs to open, per analytic round and after it has
finished: the flow/packet boundary pinned, then counted from outside.

Five fixed-seed 10 ms bench-profile runs take, between them, every
branch of the flow lifecycle — all-analytic hybrid, hybrid whose flows
alternate analytic and packet rounds, flow mode across a cable fault,
a paced rate-based sender under hybrid, and packet mode with coflow
barriers and delayed ACKs.  Each runs once with ``Timer`` construction
and ``FlowKernel.open_flow`` wrapped; the tests read its digest against
the literal recorded at the commit before the per-flow structures were
rewritten, and its endpoints against the budgets: nothing is built per
flow that the flow cannot use, and a finished receiver keeps nothing it
cannot use.
"""

import dataclasses
import functools
import gc
import hashlib
import inspect
import sys
import tracemalloc
import warnings
from collections import Counter

import pytest

from repro.experiments import runner
from repro.experiments.digest import run_digest
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EngineStats, FlowKernel, run_experiment
from repro.faults.spec import FaultSpec
from repro.net.fidelity import FidelityConfig, FidelityController
from repro.net.pfc import PfcConfig
from repro.sim.engine import Engine
from repro.sim.timers import Timer
from repro.sim.units import MILLISECOND
from repro.trace.config import TraceConfig
from repro.trace.export import jsonl_lines
from repro.transport import TRANSPORTS
from repro.transport.base import FlowReceiver, FlowSender, TransportConfig
from repro.transport.dcqcn import DcqcnSender
from repro.workload.spec import BackgroundSpec, CoflowSpec

#: Digests of the five runs at the commit before the rewrite.
PINNED = {
    "hybrid-analytic":
        "843cd3b5dd027a5b9265cf841501be0fd7bc8d31bb71a0fe013a71580d068845",
    "hybrid-mixed":
        "89ad4aceeaf412534fae7a89a014fba7cb22fcdfa5084bc21b153a767523873b",
    "flow-fault":
        "9910615de0aea77ce1714fbca6f2623a67af0388ca5abc49bf5f6706e9348df3",
    "hybrid-dcqcn":
        "952df2ed159d16f7b42f8374af12c1c9cdae515d7eef4086fc05fec20e66aae2",
    "packet-coflow-delack":
        "7c335c94de5d03836299dc7df8d36613d695a0165ab768cca9e020a9bc5d8714",
}


def _bench(system="vertigo", transport="dctcp", **kwargs):
    return ExperimentConfig.bench_profile(
        system=system, transport=transport, bg_load=0.3, incast_qps=2000,
        incast_scale=8, sim_time_ns=10 * MILLISECOND, seed=5, **kwargs)


def _fidelity(config, **fidelity_kwargs):
    return dataclasses.replace(
        config, fidelity=FidelityConfig(**fidelity_kwargs))


def _all_analytic(sim_ms):
    # Sized to > 2,000 flows per 10 ms (one-packet incast responses plus
    # a multi-round background), none of them ever demoted.
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.2,
        incast_qps=24_000, incast_scale=10, incast_flow_bytes=1000,
        sim_time_ns=sim_ms * MILLISECOND, seed=5)
    return _fidelity(config, mode="hybrid", demote_shares=64)


def _config(case):
    if case == "hybrid-analytic":
        return _all_analytic(10)
    if case == "hybrid-mixed":
        # Five shares demote a link: incast neighbourhoods run packet
        # rounds and promote back once quiet.
        return _fidelity(_bench(), mode="hybrid", demote_shares=5)
    if case == "flow-fault":
        cable = ("spine0", "leaf0")
        faults = (FaultSpec(kind="down", link=cable, at_ns=3 * MILLISECOND),
                  FaultSpec(kind="up", link=cable, at_ns=7 * MILLISECOND))
        return _fidelity(_bench(faults=faults), mode="flow")
    if case == "hybrid-dcqcn":
        return _fidelity(_bench(system="ecmp", transport="dcqcn"),
                         mode="hybrid")
    assert case == "packet-coflow-delack"
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp",
        sim_time_ns=10 * MILLISECOND, seed=5,
        workload=(BackgroundSpec(load=0.3, size_cap=200_000),
                  CoflowSpec(width=3, stages=2, flow_bytes=8_000,
                             load=0.15)))
    return dataclasses.replace(config, transport=dataclasses.replace(
        config.transport, delayed_ack=True))


@pytest.fixture(scope="module", params=sorted(PINNED))
def spied_run(request):
    record = {"case": request.param, "opening": False, "partials": 0,
              "timers": Counter(), "stragglers": 0, "refreshed": 0}
    real_open, real_timer_init = FlowKernel.open_flow, Timer.__init__
    real_on_data = FlowReceiver.on_data
    real_refresh = FidelityController._refresh_path

    def spy_open(self, *args, **kwargs):
        record["opening"] = True
        try:
            real_open(self, *args, **kwargs)
        finally:
            record["opening"] = False

    def spy_partial(*args, **kwargs):
        record["partials"] += record["opening"]
        return functools.partial(*args, **kwargs)

    def spy_timer_init(self, engine, callback, *args):
        owner = getattr(callback, "__self__", None)
        record["timers"][type(owner).__name__] += 1
        real_timer_init(self, engine, callback, *args)

    def spy_on_data(self, packet):
        record["stragglers"] += self.completed
        real_on_data(self, packet)

    def spy_refresh(self, sender, flow):
        record["refreshed"] += 1
        return real_refresh(self, sender, flow)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        # hybrid-mixed is meant to leave the share envelope.
        warnings.filterwarnings("ignore", "fidelity demotion cascade")
        patch.setattr(FlowKernel, "open_flow", spy_open)
        patch.setattr(Timer, "__init__", spy_timer_init)
        patch.setattr(FlowReceiver, "on_data", spy_on_data)
        patch.setattr(FidelityController, "_refresh_path", spy_refresh)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") \
                    and getattr(module, "partial", None) is functools.partial:
                patch.setattr(module, "partial", spy_partial)
        record["result"] = run_experiment(_config(request.param))
    return record


def _endpoints(result):
    hosts = result.network.hosts
    return ([sender for host in hosts for sender in host.senders.values()],
            [receiver for host in hosts
             for receiver in host.receivers.values()])


def test_the_run_is_the_pinned_one_and_takes_its_branch(spied_run):
    case, result = spied_run["case"], spied_run["result"]
    assert run_digest(result) == PINNED[case]
    fidelity, metrics = result.fidelity, result.metrics
    if case == "hybrid-analytic":
        assert len(metrics.flows) >= 2000
        assert fidelity["demotions"] == 0
        assert fidelity["analytic_rounds"] > len(metrics.flows)
    elif case == "hybrid-mixed":
        assert min(fidelity["demotions"], fidelity["promotions"],
                   fidelity["analytic_rounds"]) > 0
        # Duplicates reached receivers that had already finished.
        assert metrics.counters.retransmissions > 0
        assert spied_run["stragglers"] > 0
    elif case == "flow-fault":
        assert fidelity["pinned_links"] == 2
        assert fidelity["analytic_rounds"] > 0 and spied_run["refreshed"] > 0
    elif case == "hybrid-dcqcn":
        senders, _ = _endpoints(result)
        assert senders and all(sender.pacing_gap_ns() > 0
                               for sender in senders)
        assert fidelity["analytic_rounds"] > 0
    else:
        assert fidelity is None
        # A second stage opened: some barrier counted its stage down.
        assert len(metrics.flows) > 100
        assert any(coflow.flows_done > coflow.n_flows // 2
                   for coflow in metrics.coflows.values())


def test_no_partial_is_built_to_open_a_flow(spied_run):
    assert len(spied_run["result"].metrics.flows) > 100
    assert spied_run["partials"] == 0
    assert "partial(" not in inspect.getsource(runner)


def test_only_a_delayed_ack_receiver_builds_a_timer(spied_run):
    result = spied_run["result"]
    _, receivers = _endpoints(result)
    expected = len(receivers) if result.config.transport.delayed_ack else 0
    assert spied_run["timers"]["FlowReceiver"] == expected


def test_a_finished_receiver_keeps_nothing_it_cannot_use(spied_run):
    _, receivers = _endpoints(spied_run["result"])
    finished = [receiver for receiver in receivers if receiver.completed]
    assert len(finished) > 50
    for receiver in finished:
        assert receiver.on_complete is None
        assert receiver._ooo is None
    # The unfinished ones all hold the one callback the kernel made.
    assert len({id(receiver.on_complete) for receiver in receivers
                if not receiver.completed}) == 1


def test_no_per_flow_object_in_a_run_has_a_dict(spied_run):
    senders, receivers = _endpoints(spied_run["result"])
    timers = [timer for endpoint in senders + receivers
              for timer in (getattr(endpoint, name, None) for name in
                            ("_rto_timer", "_pace_timer", "_ack_timer"))
              if timer is not None]
    assert senders and receivers
    if spied_run["case"] == "packet-coflow-delack":
        assert timers
    for obj in senders + receivers + timers:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


@pytest.mark.parametrize("cls", [Timer, FlowReceiver, FlowSender,
                                 *TRANSPORTS.values()],
                         ids=lambda cls: cls.__name__)
def test_every_per_flow_class_declares_its_slots(cls):
    # A class in the chain that forgets grows the __dict__ back silently.
    assert cls.__dictoffset__ == 0
    assert all("__slots__" in vars(base) for base in cls.__mro__[:-1])


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="tracemalloc byte counts are CPython's")
def test_a_finished_flow_retains_at_most_650_bytes():
    """What 5 more simulated ms of the all-analytic case leave behind,
    per flow they finish (the flows alive at either horizon cancel)."""

    def retained(sim_ms):
        gc.collect()
        tracemalloc.start()
        try:
            result = run_experiment(_all_analytic(sim_ms))
            gc.collect()
            size, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return size, sum(flow.completed
                         for flow in result.metrics.flows.values())

    half_bytes, half_done = retained(5)
    full_bytes, full_done = retained(10)
    assert full_done - half_done >= 1000
    assert (full_bytes - half_bytes) / (full_done - half_done) <= 650


# -- DCQCN's rate clock: evaluated when read, never an event ------------------
#
# Three 10 ms DCQCN runs — lossless (2-class PFC, traced with the flow
# sampler reading ``cc_state``), lossy (PFC off, RTOs short enough to
# fire, so ``on_rto_cc`` and drops occur) and the all-analytic
# ``hybrid-dcqcn`` above — pinned at the *stats* level at the commit
# before the rate clock became lazy: ``run_digest`` with
# ``events_executed`` blanked (what the simulator spent, not what the
# network did) and, for the traced run, the JSONL minus its one
# ``engine.span`` line.  The budgets below are what the eager per-flow
# rate timer broke.

DCQCN_STATS = {
    "lossless-traced":
        ("3ddf659043a669887578f68761751fec9c9e129db972e5cc8e89d8292ca11895",
         "ed7d0b13fe1ad11706fe678f23f2dd9807683b6b428b5293c9afae16ec1b8751"),
    "lossy":
        ("1c2492aa262d0ef2a864a80ad8a5a4fb6b7c271bfc2093d0830fa9ff9a259805",
         None),
    "hybrid-dcqcn":
        ("41aefb4966e2695a210bad355f89d7cee71f4c6d58b7bb18e1c2c65c79a9f1d5",
         None),
}

#: ``events_executed`` per ``Port._tx_done``: recorded 2.4084 and 2.2401
#: (the eager clock: 2.5240 and 2.3161).  The gap widens with the horizon,
#: as more flows sit parked while their clock would have ticked.
EVENTS_PER_TX_BUDGET = {"lossless-traced": 2.41, "lossy": 2.25}


def _dcqcn_config(case):
    if case == "hybrid-dcqcn":
        return _config(case)
    config = ExperimentConfig.bench_profile(
        system="ecmp", transport="dcqcn", bg_load=0.5, incast_load=0.25,
        incast_scale=12, sim_time_ns=10 * MILLISECOND, seed=1)
    if case == "lossy":
        return dataclasses.replace(config, transport=TransportConfig(
            init_rto_ns=MILLISECOND, min_rto_ns=MILLISECOND // 2))
    return dataclasses.replace(
        config,
        pfc=PfcConfig(enabled=True, num_classes=2, priority_map=(0, 1)),
        trace=TraceConfig(level="flow", sample_period_ns=500_000))


@pytest.fixture(scope="module", params=sorted(DCQCN_STATS))
def dcqcn_run(request):
    record = {"case": request.param, "timer_callbacks": Counter(),
              "rto_cuts": 0}
    real_schedule, real_rto_cc = Engine.schedule, DcqcnSender.on_rto_cc

    def spy_schedule(self, delay, fn, *args, **kwargs):
        timer = getattr(fn, "__self__", None)
        if isinstance(timer, Timer):
            callback = timer._callback
            owner = getattr(callback, "__self__", None)
            record["timer_callbacks"][
                type(owner).__name__, callback.__name__] += 1
        return real_schedule(self, delay, fn, *args, **kwargs)

    def spy_rto_cc(self):
        record["rto_cuts"] += 1
        real_rto_cc(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "schedule", spy_schedule)
        patch.setattr(DcqcnSender, "on_rto_cc", spy_rto_cc)
        record["result"] = run_experiment(_dcqcn_config(request.param))
    return record


def test_dcqcn_stats_are_the_pinned_ones_and_the_run_takes_its_branch(
        dcqcn_run):
    case, result = dcqcn_run["case"], dcqcn_run["result"]
    blanked = dataclasses.replace(
        result.portable(), trace=None,
        engine=EngineStats(now=result.engine.now, events_executed=0))
    jsonl = None
    if result.trace is not None:
        lines = list(jsonl_lines(result.trace))
        kept = [line for line in lines if '"ev":"engine.span"' not in line]
        assert len(kept) == len(lines) - 1
        jsonl = hashlib.sha256(
            "".join(line + "\n" for line in kept).encode()).hexdigest()
    assert (run_digest(blanked), jsonl) == DCQCN_STATS[case]
    counters = result.metrics.counters
    if case == "lossless-traced":
        assert counters.total_drops == 0 and result.pfc["pause_events"] > 0
        assert result.trace.counts()["sample.flow"] > 1000
    elif case == "lossy":
        assert counters.total_drops > 0 and dcqcn_run["rto_cuts"] > 0
    else:
        assert result.fidelity["analytic_rounds"] > 0


def test_a_dcqcn_run_schedules_no_rate_tick(dcqcn_run):
    """The increase clock touches nothing the world can see until the
    flow next reads its rate, so it is never a calendar entry: the only
    timers a DCQCN sender arms are the base sender's two."""
    armed = {name for (owner, name), _count
             in dcqcn_run["timer_callbacks"].items()
             if owner == "DcqcnSender"}
    assert armed <= {"_on_rto", "_maybe_send"}
    if dcqcn_run["case"] != "hybrid-dcqcn":  # which transmits nothing
        assert armed == {"_on_rto", "_maybe_send"}


def test_events_per_transmission_stay_in_budget(dcqcn_run):
    case, result = dcqcn_run["case"], dcqcn_run["result"]
    if case == "hybrid-dcqcn":
        pytest.skip("all-analytic: no packet is transmitted")
    sent = sum(port.packets_sent
               for port in result.network.tx_ports.values())
    assert sent > 5000
    assert result.engine.events_executed \
        <= EVENTS_PER_TX_BUDGET[case] * sent


def test_a_finished_dcqcn_sender_is_freed_by_reference_count():
    """PR 22's rule for the base sender, held for the rate-based one: a
    flow that only ran analytic rounds holds no ``Timer`` and no bound
    method of itself when it finishes, so the host letting go of it
    frees it without the cycle collector."""
    held = []
    real_tx_done = FlowKernel._tx_done

    def spy_tx_done(self, sender):
        values = [(name, getattr(sender, name, None))
                  for cls in type(sender).__mro__[:-1]
                  for name in cls.__slots__]
        held.append([name for name, value in values
                     if isinstance(value, Timer)
                     or getattr(value, "__self__", None) is sender])
        real_tx_done(self, sender)

    def alive():
        return sum(type(obj) is DcqcnSender for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FlowKernel, "_tx_done", spy_tx_done)
            result = run_experiment(_config("hybrid-dcqcn"))
        after = alive()
    finally:
        gc.enable()
    assert len(held) > 50 and not any(held)
    assert after - before \
        == sum(len(host.senders) for host in result.network.hosts)
