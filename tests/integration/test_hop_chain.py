"""The shared switch -> queue -> port -> engine path: what one packet-hop
may cost, counted from outside.

One small fixed-seed incast per system is run once with the class
attributes wrapped; the tests read the counts against what the run
itself reports (packets sent, packets forwarded, drops).  The budgets
say "each fact is established once per hop": a port is entered to
transmit only when it can, capacity is tested once per admission, and
nothing per-flow re-derives what is fixed per run.
"""

import sys
from collections import Counter

import pytest

from repro.experiments.digest import run_digest
from repro.experiments.config import ExperimentConfig
from repro.experiments import runner
from repro.experiments.runner import run_experiment
from repro.net.link import Port
from repro.net.queues import _BoundedQueue
from repro.sim.units import MILLISECOND
from repro.transport.base import FlowSender
from repro.workload.distributions import EmpiricalCDF

#: Digests of the two runs at the commit before the path was flattened.
PINNED = {
    "ecmp":
        "007163fc99c44ede1da3a897180081293e5c59c7cb724e270dae4f1445d38db8",
    "vertigo":
        "864b5c6f29ea7ed597711d7dc7c2a6573a58eab89fac065f1b4ab7eeec1d77a1",
}

#: ``Port._tx_done`` calls that leave their port idle (nothing queued
#: behind the packet) in the two runs, of 15,403 (ecmp) and 15,919
#: (vertigo) calls.
IDLE_AFTER_TX = {"ecmp": 4068, "vertigo": 1970}


def _config(system):
    return ExperimentConfig.bench_profile(
        system=system, transport="dctcp", bg_load=0.5, incast_load=0.35,
        sim_time_ns=10 * MILLISECOND, seed=5)


@pytest.fixture(scope="module", params=sorted(PINNED))
def spied_run(request):
    record = {"system": request.param, "tries": 0, "fits": Counter(),
              "started": False, "late_replace": 0, "late_mean_steps": 0,
              "tx_done": 0, "left_idle": 0}
    real_try, real_fits = Port._try_transmit, _BoundedQueue.fits
    real_tx_done = Port._tx_done
    real_start, real_replace = FlowSender.start, runner.replace
    real_quantile = EmpiricalCDF.quantile

    def spy_try(self):
        record["tries"] += 1
        real_try(self)

    def spy_tx_done(self, packet):
        record["tx_done"] += 1
        real_tx_done(self, packet)
        record["left_idle"] += not self.busy

    def spy_fits(self, packet):
        record["fits"][id(self)] += 1
        return real_fits(self, packet)

    def spy_start(self):
        record["started"] = True
        real_start(self)

    def spy_replace(obj, **changes):
        record["late_replace"] += record["started"]
        return real_replace(obj, **changes)

    def spy_quantile(self, u):
        if record["started"] \
                and sys._getframe(1).f_code.co_name != "sample":
            record["late_mean_steps"] += 1
        return real_quantile(self, u)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Port, "_try_transmit", spy_try)
        patch.setattr(Port, "_tx_done", spy_tx_done)
        patch.setattr(_BoundedQueue, "fits", spy_fits)
        patch.setattr(FlowSender, "start", spy_start)
        patch.setattr(runner, "replace", spy_replace)
        patch.setattr(EmpiricalCDF, "quantile", spy_quantile)
        record["result"] = run_experiment(_config(request.param))
    return record


def test_the_run_is_the_pinned_one_and_exercises_the_path(spied_run):
    result = spied_run["result"]
    counters = result.metrics.counters
    assert run_digest(result) == PINNED[spied_run["system"]]
    assert counters.forwarded > 10_000 and counters.total_drops > 0
    assert counters.retransmissions > 0 and spied_run["started"]


def test_a_port_is_entered_to_transmit_only_when_it_can(spied_run):
    network = spied_run["result"].network
    ports = list(network.tx_ports.values())
    sent = sum(port.packets_sent for port in ports)
    # No fault and no PFC in these runs, so nothing kicks a port that
    # then has to decline; what separates tries from completions is
    # the packet each busy port is still serializing at the horizon.
    serializing = sum(port.busy for port in ports)
    assert spied_run["tries"] == sent + serializing
    assert spied_run["tries"] <= 1.02 * sent


def test_most_transmissions_end_with_bytes_still_queued(spied_run):
    # Why fusing serialization with propagation is not the lever (DESIGN.md
    # "Performance"): a port must wake when its packet has serialized
    # whenever bytes are still queued behind it, and only the idle share
    # of _tx_done calls could lose that event.
    network = spied_run["result"].network
    sent = sum(port.packets_sent for port in network.tx_ports.values())
    assert spied_run["tx_done"] == sent
    assert spied_run["left_idle"] == IDLE_AFTER_TX[spied_run["system"]]


def test_capacity_is_tested_once_per_admission(spied_run):
    result = spied_run["result"]
    counters = result.metrics.counters
    fits = spied_run["fits"]
    hosts = result.network.hosts
    nic_fits = sum(fits[id(host.nic.queue)] for host in hosts)
    assert nic_fits == sum(host.nic.queue.stats.enqueued for host in hosts) \
        + counters.drops["host_nic_overflow"]
    switch_fits = sum(fits[id(port.queue)]
                      for switch in result.network.switches.values()
                      for port in switch.ports)
    assert sum(fits.values()) == switch_fits + nic_fits
    if spied_run["system"] == "ecmp":
        # One evaluation per routed packet: it is forwarded or
        # tail-dropped, and push() does not ask again.
        assert switch_fits \
            == counters.forwarded + counters.drops["overflow"]
    else:
        # Vertigo asks again while it displaces from a full queue and
        # when it deflects; never fewer than once per packet it places.
        assert switch_fits >= counters.forwarded


def test_nothing_fixed_per_run_is_rederived_per_flow(spied_run):
    assert len(spied_run["result"].metrics.flows) > 100
    # The resolved transport config (the runner's one dataclasses.replace)
    # and the size distribution's mean (a 4,096-step quadrature over
    # quantile()) exist before the first flow starts.
    assert spied_run["late_replace"] == 0
    assert spied_run["late_mean_steps"] == 0
