"""Failure injection: random link loss (flaky cables / bit errors)."""

import dataclasses
import functools
import random

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import run_digest
from repro.experiments.runner import EngineStats, run_experiment
from repro.faults.spec import parse_faults
from repro.net.link import Link
from repro.sim.engine import Engine
from repro.sim.units import MILLISECOND
from tests.helpers import SinkDevice, mk_data


def lossy_everywhere(config, loss_rate):
    """``config`` with a loss fault from t=0 on every cable of the fabric
    (the one way to make a cable lossy)."""
    topology = config.topology
    cables = [(topology.host_tor(host), f"h{host}")
              for host in range(topology.n_hosts)]
    cables += topology.switch_adjacency
    return dataclasses.replace(config, faults=parse_faults(
        f"link:{a}-{b}:loss={loss_rate}@0" for a, b in cables))


def test_link_loss_rate_validation():
    engine = Engine()
    sink = SinkDevice()
    with pytest.raises(ValueError):
        Link(engine, 10 ** 9, 0, sink, 0, loss_rate=1.5,
             loss_rng=random.Random(0))
    with pytest.raises(ValueError):
        Link(engine, 10 ** 9, 0, sink, 0, loss_rate=0.5)  # no rng


def test_lossy_link_drops_expected_fraction():
    engine = Engine()
    sink = SinkDevice()
    lost = []
    link = Link(engine, 10 ** 9, 0, sink, 0, loss_rate=0.3,
                loss_rng=random.Random(7),
                on_drop=lambda packet, reason: lost.append(reason))
    for _ in range(2000):
        link.deliver(mk_data())
    engine.run()
    assert lost == ["link_loss"] * link.losses
    assert 0.25 < link.losses / 2000 < 0.35
    assert len(sink.received) == 2000 - link.losses


def test_perfect_link_never_drops():
    engine = Engine()
    sink = SinkDevice()
    link = Link(engine, 10 ** 9, 0, sink, 0)
    for _ in range(100):
        link.deliver(mk_data())
    engine.run()
    assert len(sink.received) == 100 and link.losses == 0


@pytest.mark.parametrize("system", ["ecmp", "vertigo"])
def test_transports_survive_one_percent_link_loss(system):
    config = ExperimentConfig.bench_profile(
        system=system, transport="dctcp", bg_load=0.1, incast_qps=60,
        incast_scale=4, incast_flow_bytes=5_000,
        sim_time_ns=80 * MILLISECOND)
    result = run_experiment(lossy_everywhere(config, 0.01))
    counters = result.metrics.counters
    assert counters.drops["link_loss"] > 0
    # Reliability recovers: a solid majority of flows still complete.
    assert result.report().row()["flow_completion_pct"] > 60
    assert counters.retransmissions > 0


def test_loss_counted_deterministically():
    def run():
        config = ExperimentConfig.bench_profile(
            system="ecmp", transport="dctcp", bg_load=0.1, incast_qps=40,
            incast_scale=3, incast_flow_bytes=4_000,
            sim_time_ns=30 * MILLISECOND)
        return run_experiment(lossy_everywhere(config, 0.02)) \
            .metrics.counters.drops["link_loss"]

    assert run() == run() > 0


# -- metamorphic relations: a fault that changes nothing is no fault ----------


def _reference(system):
    return ExperimentConfig.bench_profile(
        system=system, sim_time_ns=5 * MILLISECOND, bg_load=0.5,
        incast_load=0.25, incast_scale=12)


@functools.lru_cache(maxsize=None)
def _unfaulted_digest(system):
    return run_digest(run_experiment(_reference(system)))


@pytest.mark.parametrize("system", ["ecmp", "vertigo"])
@pytest.mark.parametrize("directive, entries", [
    # Past the horizon: the calendar never reaches it.
    ("link:leaf0-spine1:down@5000001", 0),
    ("link:leaf0-spine1:down@1s", 0),
    # A loss rate of 0 on a fabric cable and on a host cable: applied
    # (one calendar entry), its loss stream never drawn.
    ("link:leaf0-spine1:loss=0@0ms", 1),
    ("link:h3-leaf0:loss=0@1ms", 1),
])
def test_a_fault_that_changes_nothing_is_no_fault(system, directive,
                                                  entries):
    """The run digest equals the unfaulted run's once the fault's own
    traces are taken out: the digest's ``faults`` section, and the
    calendar entry that applied it when the run reached it."""
    faulted = run_experiment(dataclasses.replace(
        _reference(system), faults=parse_faults([directive])))
    as_unfaulted = dataclasses.replace(
        faulted, config=dataclasses.replace(faulted.config, faults=()),
        engine=EngineStats(
            now=faulted.engine.now,
            events_executed=faulted.engine.events_executed - entries))
    assert run_digest(as_unfaulted) == _unfaulted_digest(system)
