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
import inspect
import sys
import tracemalloc
import warnings
from collections import Counter

import pytest

from repro.experiments import run_digest, runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import FlowKernel, run_experiment
from repro.faults.spec import FaultSpec
from repro.net.fidelity import FidelityConfig, FidelityController
from repro.sim.timers import Timer
from repro.sim.units import MILLISECOND
from repro.transport import TRANSPORTS
from repro.transport.base import FlowReceiver, FlowSender, _Segment
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
        "9602a415115add05e414351668a8c97cc2309f9a408631f5bc49e847999200b5",
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
                            ("_rto_timer", "_pace_timer", "_rate_timer",
                             "_ack_timer")) if timer is not None]
    segments = [segment for sender in senders
                for segment in sender._segments.values()]
    assert senders and receivers
    if spied_run["case"] == "packet-coflow-delack":
        assert timers and segments
    for obj in senders + receivers + timers + segments:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


@pytest.mark.parametrize("cls", [Timer, FlowReceiver, _Segment, FlowSender,
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
