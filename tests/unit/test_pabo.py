"""PABO packet-bounce baseline."""

from repro.forwarding.pabo import MAX_BOUNCES, PaboPolicy
from repro.sim.engine import Engine
from tests.helpers import fill_queue, make_switch, mk_data, seeded_rng


def _pabo_switch(engine):
    switch, sinks, metrics = make_switch(engine, n_host_ports=1,
                                         n_fabric_ports=4)
    switch.policy = PaboPolicy(switch, seeded_rng())
    return switch, sinks, metrics


def test_forwards_normally_with_space():
    engine = Engine()
    switch, sinks, metrics = _pabo_switch(engine)
    packet = mk_data(dst=0)
    switch.receive(packet, in_port=1)
    engine.run()
    assert sinks[0].received == [packet]
    assert metrics.counters.deflections == 0


def test_bounces_back_out_the_input_port():
    engine = Engine()
    switch, sinks, metrics = _pabo_switch(engine)
    fill_queue(switch, 0)
    packet = mk_data(dst=0)
    in_port = switch.switch_ports[1]
    switch.receive(packet, in_port=in_port)
    engine.run()
    # The packet went back to the upstream peer on the arrival port.
    assert packet in sinks[in_port].received
    assert packet.deflections == 1
    assert metrics.counters.deflections == 1


def test_bounce_from_host_port_drops():
    engine = Engine()
    switch, _, metrics = _pabo_switch(engine)
    fill_queue(switch, 0)
    # Arrived from the (full) destination host's own port: cannot bounce.
    switch.receive(mk_data(dst=0), in_port=0)
    assert metrics.counters.drops["bounce_failed"] == 1


def test_bounce_budget_enforced():
    engine = Engine()
    switch, _, metrics = _pabo_switch(engine)
    fill_queue(switch, 0)
    packet = mk_data(dst=0)
    packet.deflections = MAX_BOUNCES
    switch.receive(packet, in_port=switch.switch_ports[0])
    assert metrics.counters.drops["bounce_failed"] == 1


def test_bounce_fails_when_reverse_path_full():
    engine = Engine()
    switch, _, metrics = _pabo_switch(engine)
    fill_queue(switch, 0)
    in_port = switch.switch_ports[0]
    fill_queue(switch, in_port)
    switch.receive(mk_data(dst=0), in_port=in_port)
    assert metrics.counters.drops["bounce_failed"] == 1


def test_runner_supports_pabo():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig.bench_profile(
        system="pabo", transport="dctcp", bg_load=0.1, incast_qps=40,
        incast_scale=4, incast_flow_bytes=5_000, sim_time_ns=20_000_000)
    result = run_experiment(config)
    assert result.metrics.counters.delivered > 0
