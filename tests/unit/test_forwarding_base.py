"""Shared forwarding-policy helpers (least loaded, power-of-n choices)."""

from collections import Counter

import pytest

from repro.forwarding.ecmp import EcmpPolicy
from repro.sim.engine import Engine
from tests.helpers import fill_queue, make_switch, seeded_rng


def _policy(n_fabric_ports=4):
    engine = Engine()
    switch, _, _ = make_switch(engine, n_host_ports=0,
                               n_fabric_ports=n_fabric_ports)
    policy = EcmpPolicy(switch, seeded_rng())
    return policy, switch


def test_least_loaded_prefers_emptier_queue():
    policy, switch = _policy()
    fill_queue(switch, 0, payload=1000)
    assert policy.least_loaded([0, 1]) == 1


def test_least_loaded_ties_break_by_port_order():
    policy, _ = _policy()
    assert policy.least_loaded([3, 1, 2]) == 1


def test_power_of_one_is_uniform_random():
    policy, _ = _policy()
    counts = Counter(policy.power_of_n_choice([0, 1, 2, 3], 1)
                     for _ in range(400))
    assert set(counts) == {0, 1, 2, 3}
    assert max(counts.values()) < 2.5 * min(counts.values())


def test_power_of_two_picks_lighter_of_sampled():
    policy, switch = _policy()
    # Load every port except 2: po2 must never pick a loaded port when
    # port 2 is in its sample, and over many trials must favour port 2.
    for port in (0, 1, 3):
        fill_queue(switch, port, payload=1000)
    counts = Counter(policy.power_of_n_choice([0, 1, 2, 3], 2)
                     for _ in range(200))
    assert counts[2] > 60  # sampled in ~half the trials, wins them all


def test_power_of_n_with_n_geq_candidates_is_global_min():
    policy, switch = _policy()
    for port in (0, 1, 2):
        fill_queue(switch, port, payload=1000)
    assert policy.power_of_n_choice([0, 1, 2, 3], 4) == 3
    assert policy.power_of_n_choice([0, 1, 2, 3], 99) == 3


def test_power_of_n_single_candidate():
    policy, _ = _policy()
    assert policy.power_of_n_choice([7], 2) == 7


def test_power_of_n_empty_candidates_rejected():
    policy, _ = _policy()
    with pytest.raises(ValueError):
        policy.power_of_n_choice([], 2)
