"""Failure injection: random link loss (flaky cables / bit errors)."""

import dataclasses
import random

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
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
    assert result.metrics.flow_completion_pct() > 60
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
