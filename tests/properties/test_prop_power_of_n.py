"""Property-based test: ``power_of_n_choice`` against ``rng.sample``.

The per-packet choice makes ``random.Random.sample``'s draws itself
instead of calling it.  Every pinned run digest depends on the result —
and on the generator state left behind — being exactly what
``least_loaded(rng.sample(list(candidates), n))`` gives on the running
Python, for every population size on both sides of ``sample``'s
pool/set switch.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.forwarding.ecmp import EcmpPolicy
from repro.sim.engine import Engine
from tests.helpers import make_switch, mk_data

N_PORTS = 24


def _reference(policy, candidates, n):
    """The selection ``power_of_n_choice`` replaced, verbatim."""
    if len(candidates) == 1:
        return candidates[0]
    if n <= 1:
        return policy.rng.choice(list(candidates))
    sampled = candidates if len(candidates) <= n \
        else policy.rng.sample(list(candidates), n)
    return policy.least_loaded(sampled)


@given(order=st.permutations(range(N_PORTS)),
       # Every size, and extra weight where sample() changes algorithm.
       size=st.integers(1, N_PORTS) | st.integers(20, 23),
       n=st.integers(1, 3),
       depths=st.lists(st.integers(0, 3), min_size=N_PORTS,
                       max_size=N_PORTS),
       seed=st.integers(0, 2 ** 32))
@settings(max_examples=300, deadline=None)
def test_same_port_and_same_generator_state(order, size, n, depths, seed):
    candidates = tuple(order[:size])
    switch, _, _ = make_switch(Engine(), n_host_ports=0,
                               n_fabric_ports=N_PORTS)
    for port, depth in enumerate(depths):  # few distinct depths: many ties
        for seq in range(depth):
            switch.ports[port].queue.push(mk_data(seq=seq), 0)
    policy = EcmpPolicy(switch, random.Random(seed))
    reference = EcmpPolicy(switch, random.Random(seed))
    for _ in range(64):  # a state divergence can take a few draws to show
        assert policy.power_of_n_choice(candidates, n) \
            == _reference(reference, candidates, n)
        assert policy.rng.getstate() == reference.rng.getstate()
