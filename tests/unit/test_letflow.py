"""LetFlow flowlet-switching baseline."""

import pytest

from repro.forwarding.letflow import LetFlowPolicy
from repro.sim.engine import Engine
from tests.helpers import fill_queue, make_switch, mk_data, seeded_rng


def _letflow_switch(engine, gap_ns=1000, n_fabric_ports=4):
    switch, sinks, metrics = make_switch(engine, n_host_ports=0,
                                         n_fabric_ports=n_fabric_ports)
    switch.fib[0] = tuple(switch.switch_ports)
    switch.policy = LetFlowPolicy(switch, seeded_rng(),
                                  flowlet_gap_ns=gap_ns)
    return switch, sinks, metrics


def test_gap_validation():
    engine = Engine()
    switch, _, _ = make_switch(engine)
    with pytest.raises(ValueError):
        LetFlowPolicy(switch, seeded_rng(), flowlet_gap_ns=0)


def test_packets_within_flowlet_stick_to_one_path():
    engine = Engine()
    switch, _, _ = _letflow_switch(engine, gap_ns=1_000_000)
    for seq in range(10):  # all at t=0: one flowlet
        switch.receive(mk_data(flow_id=1, seq=seq * 100, dst=0), in_port=0)
    used = [p for p in switch.switch_ports
            if switch.ports[p].queue.packets() or switch.ports[p].busy]
    assert len(used) == 1
    policy = switch.policy
    assert policy.flowlet_switches == 0


def test_gap_triggers_new_path_choice():
    engine = Engine()
    switch, _, _ = _letflow_switch(engine, gap_ns=1000)
    switched = 0
    for burst in range(40):
        switch.receive(mk_data(flow_id=1, seq=burst * 100, dst=0),
                       in_port=0)
        engine.run(until=engine.now + 10_000)  # exceed the flowlet gap
    # With 4 candidates and 40 independent re-picks, multiple paths and
    # at least one switch must have occurred.
    assert switch.policy.flowlet_switches >= 1
    used = sum(1 for p in switch.switch_ports
               if switch.ports[p].link.dst.received)
    assert used >= 2


def test_different_flows_balance_across_paths():
    engine = Engine()
    switch, _, _ = _letflow_switch(engine, gap_ns=1_000_000)
    for flow in range(100):
        switch.receive(mk_data(flow_id=flow, dst=0), in_port=0)
    engine.run()
    used = sum(1 for p in switch.switch_ports
               if switch.ports[p].link.dst.received)
    assert used == 4


def test_overflow_tail_drops():
    engine = Engine()
    switch, sinks, metrics = make_switch(engine, n_host_ports=1,
                                         n_fabric_ports=0)
    switch.policy = LetFlowPolicy(switch, seeded_rng())
    fill_queue(switch, 0)
    switch.receive(mk_data(dst=0), in_port=0)
    assert metrics.counters.drops["overflow"] == 1
    assert metrics.counters.deflections == 0


def test_runner_supports_letflow():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig.bench_profile(
        system="letflow", transport="dctcp", bg_load=0.1, incast_qps=40,
        incast_scale=4, incast_flow_bytes=5_000, sim_time_ns=20_000_000)
    result = run_experiment(config)
    assert result.metrics.counters.delivered > 0
    assert result.report().row()["flow_completion_pct"] > 30
