"""Property-based test: Vertigo's switch against a reference model.

DESIGN.md's "Vertigo design summary" point 2 — forward by power of n,
displace the largest rank inside the arrival's class lane, deflect what
was displaced by power of n over the switch-facing ports, force-insert
when the deflection target is full — is :func:`vertigo_switch` below:
one pure function from a switch's queues, one arriving packet and a
recorded list of RNG draws to the ordered actions the switch takes.
The test drives the real :class:`~repro.forwarding.vertigo.VertigoPolicy`
on a stub switch with the same draws and asserts the same action list,
over ``fw_choices`` / ``def_choices`` 1 and 2, both Figure 11a
ablations, class lanes, mixed packet sizes (footnote 4) and the
deflection budget (``MAX_DEFLECTIONS``).  The rank is a parameter of the
model (default: the on-wire RFS), so what a queue sorts by is one
argument here.

Recorded mutants this kills (:data:`MUTANTS`, re-applied to the real
module by ``test_recorded_mutant_is_killed``): displacement across class
lanes; ``_force_insert`` dropping the arrival while a larger-rank tail
exists; deflection to the excluded port; a victim restored instead of
deflected.
"""

from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, Tuple

import pytest
from hypothesis import Phase, given, settings, strategies as st

import repro.forwarding.vertigo as vertigo
from repro.core.flowinfo import FlowInfo
from repro.forwarding.base import MAX_DEFLECTIONS, VertigoSwitchParams
from repro.net.queues import ClassLaneQueue, DropTailQueue, RankedQueue
from tests.helpers import mk_data

HEADER = 40
SIZES = (240, 740, 1500)             # wire bytes: several victims per slot
CAPACITIES = (1500, 3000)            # per lane
#: Switch-facing port counts: 1 and 2 reach no draw or a plain compare,
#: 23 (22 once a port is excluded) reaches ``rng.sample``.  Between them
#: ``power_of_n_choice`` makes ``sample``'s draws itself, a path
#: ``test_prop_power_of_n`` holds to ``sample``.
UPLINKS = (1, 2, 23)
HOST_PORT = 0


def sample_positions(count, k, draws):
    """``k`` distinct positions out of ``count``, one draw each."""
    pool = list(range(count))
    return [pool.pop(next(draws) % len(pool)) for _ in range(k)]


class Pkt(NamedTuple):
    name: object     # ("queued", port, index) or "arrival"
    rfs: int
    size: int        # wire bytes
    cls: int         # priority class
    deflections: int = 0


def rfs(packet: Pkt) -> int:
    return packet.rfs


def vertigo_switch(queues, capacity, lanes, candidates, switch_ports,
                   arrival, params, draws, rank=rfs):
    """The actions one Vertigo switch takes on ``arrival``.

    ``queues[port]`` lists that port's ``(rfs, bytes, class)`` in arrival
    order; each lane (one per class when ``lanes``) holds ``capacity[port]``
    bytes; ``arrival`` is ``(rfs, bytes, class, deflections)``.  Returns
    ``("enqueue", p, port)``, ``("deflect", p, from, to)``, ``("drop", p,
    reason)``."""
    draws, actions = iter(draws), []
    held = {port: [Pkt(("queued", port, i), *item)
                   for i, item in enumerate(items)]
            for port, items in enumerate(queues)}

    def lane(port, packet):
        return [p for p in held[port] if not lanes or p.cls == packet.cls]

    def fits(port, packet):
        return sum(p.size for p in lane(port, packet)) + packet.size \
            <= capacity[port]

    def evict(port, packet):
        """The lane's largest-rank packet (the latest among equals), taken
        out; None when it does not outrank ``packet``."""
        members = lane(port, packet)
        tail = max(reversed(members), key=rank) if members else None
        if tail is None or rank(tail) <= rank(packet):
            return None
        held[port].remove(tail)
        return tail

    def pick(ports, n):
        if len(ports) > n:
            ports = [ports[i] for i in sample_positions(len(ports), n, draws)]
        return min(ports, key=lambda p: (sum(q.size for q in held[p]), p))

    def enqueue(packet, port):
        held[port].append(packet)
        actions.append(("enqueue", packet.name, port))

    def drop(packet, reason):
        actions.append(("drop", packet.name, reason))

    def deflect(packet, origin):
        targets = [port for port in switch_ports if port != origin]
        if not params.deflection:
            return drop(packet, "selective_drop")
        if packet.deflections >= MAX_DEFLECTIONS:
            return drop(packet, "deflection_limit")
        if not targets:
            return drop(packet, "no_deflection_target")
        to = pick(targets, params.def_choices)
        actions.append(("deflect", packet.name, origin, to))
        while params.scheduling and not fits(to, packet):
            victim = evict(to, packet)
            if victim is None:
                break
            drop(victim, "congestion_displaced")
        if not fits(to, packet):
            return drop(packet, "congestion_drop")
        enqueue(packet, to)

    packet = Pkt("arrival", *arrival)
    port = pick(candidates, params.fw_choices)
    if not params.scheduling and not fits(port, packet):
        deflect(packet, port)
        return actions
    victims = []
    while not fits(port, packet):
        victim = evict(port, packet)
        if victim is None:          # the arrival outranks the lane: it
            victims.insert(0, packet)   # detours first, victims follow
            break
        victims.append(victim)
    else:
        enqueue(packet, port)
    for victim in victims:
        deflect(victim, port)
    return actions


# -- the real policy, on a stub switch ---------------------------------------


class Draws:
    """The policy's RNG, serving a recorded list of draws as the model
    reads them (:func:`sample_positions`)."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def choice(self, seq):
        return seq[sample_positions(len(seq), 1, self._draws)[0]]

    def sample(self, population, k):
        return [population[i]
                for i in sample_positions(len(population), k, self._draws)]


class StubSwitch:
    """What ``VertigoPolicy`` reads of a switch; records what it does."""

    def __init__(self, queues, switch_ports, fib, names):
        self.ports = [SimpleNamespace(queue=queue) for queue in queues]
        self.switch_ports = switch_ports
        self.fib = fib
        self.engine = SimpleNamespace(now=0)
        self.names = names
        self.actions = []

    def enqueue(self, port, packet):
        self.actions.append(("enqueue", self.names[id(packet)], port))
        self.ports[port].queue.push(packet)

    def deflected(self, packet, from_port, to_port):
        packet.deflections += 1
        self.actions.append(
            ("deflect", self.names[id(packet)], from_port, to_port))

    def drop(self, packet, reason):
        self.actions.append(("drop", self.names[id(packet)], reason))


class Case(NamedTuple):
    params: VertigoSwitchParams
    lanes: bool
    capacity: Tuple[int, ...]
    queues: Tuple[Tuple[Tuple[int, int, int], ...], ...]
    switch_ports: Tuple[int, ...]
    candidates: Tuple[int, ...]
    arrival: Tuple[int, int, int, int]
    draws: Tuple[int, ...]


ITEM = st.tuples(st.integers(0, 6), st.sampled_from(SIZES),
                 st.integers(0, 1))


def _admitted(items, capacity, lanes):
    """The ``items``, in order, that each lane has room for."""
    used = [0, 0]
    kept = []
    for item in items:
        lane = item[2] if lanes else 0
        if used[lane] + item[1] <= capacity:
            used[lane] += item[1]
            kept.append(item)
    return tuple(kept)


#: A port's contents: a few packets, or those packets repeated until its
#: lanes are (nearly) full — the state every decision here starts from.
CONTENTS = st.tuples(st.lists(ITEM, min_size=1, max_size=4), st.booleans())


@st.composite
def cases(draw):
    uplinks = draw(st.sampled_from(UPLINKS))
    n_ports = 1 + uplinks
    lanes = draw(st.booleans())
    capacity = tuple(draw(st.lists(st.sampled_from(CAPACITIES),
                                   min_size=n_ports, max_size=n_ports)))
    contents = draw(st.lists(CONTENTS, min_size=n_ports, max_size=n_ports))
    switch_ports = tuple(range(1, n_ports))
    return Case(
        params=VertigoSwitchParams(
            fw_choices=draw(st.sampled_from((1, 2))),
            def_choices=draw(st.sampled_from((1, 2))),
            scheduling=draw(st.sampled_from((True, True, False))),
            deflection=draw(st.sampled_from((True, True, False)))),
        lanes=lanes, capacity=capacity,
        queues=tuple(_admitted(items * (20 if full else 1), cap, lanes)
                     for (items, full), cap in zip(contents, capacity)),
        switch_ports=switch_ports,
        candidates=draw(st.sampled_from(((HOST_PORT,), switch_ports))),
        arrival=draw(ITEM) + (draw(st.sampled_from(
            (0, 1, MAX_DEFLECTIONS - 1, MAX_DEFLECTIONS))),),
        draws=tuple(draw(st.lists(st.integers(0, 2 ** 16), min_size=64,
                                  max_size=64))))


def _packet(names, name, rank, size, cls):
    packet = mk_data(seq=len(names), payload=size - HEADER, dst=1)
    packet.flowinfo = FlowInfo(rfs=rank)
    packet.pclass = cls
    names[id(packet)] = name
    return packet


def real_actions(policy_cls, case):
    make = RankedQueue if case.params.scheduling else DropTailQueue
    names = {}
    queues = []
    for port, (items, cap) in enumerate(zip(case.queues, case.capacity)):
        queue = ClassLaneQueue([make(cap), make(cap)]) if case.lanes \
            else make(cap)
        for index, item in enumerate(items):
            queue.push(_packet(names, ("queued", port, index), *item))
        queues.append(queue)
    arrival = _packet(names, "arrival", *case.arrival[:3])
    arrival.deflections = case.arrival[3]
    switch = StubSwitch(queues, case.switch_ports,
                        {arrival.dst: case.candidates}, names)
    policy = policy_cls(switch, Draws(case.draws), case.params)
    try:
        policy.route(arrival, in_port=HOST_PORT)
    except Exception as error:  # a crash is one more (wrong) action
        switch.actions.append(("raised", type(error).__name__))
    return switch.actions


def model_actions(case):
    return vertigo_switch(case.queues, case.capacity, case.lanes,
                          case.candidates, case.switch_ports, case.arrival,
                          case.params, case.draws)


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_policy_takes_the_models_actions(case):
    assert real_actions(vertigo.VertigoPolicy, case) == model_actions(case)


# -- recorded mutants -------------------------------------------------------

#: ``(line before, line after)`` in ``repro/forwarding/vertigo.py``.
MUTANTS = {
    "displacement across class lanes": (
        "            return queue.lane_for(packet)\n",
        "            return queue.lanes[0]\n"),
    "force insert drops the arrival over a larger-rank tail": (
        "tail_rank <= rank:\n                switch.drop(packet, "
        "\"congestion_drop\")",
        "tail_rank >= 0:\n                switch.drop(packet, "
        "\"congestion_drop\")"),
    "deflection to the excluded port": (
        "targets = self.deflection_targets(exclude)",
        "targets = self.deflection_targets(-1)"),
    "a victim restored instead of deflected": (
        "                for victim in victims:\n"
        "                    self._deflect(victim, exclude=port)\n"
        "                return\n",
        "                for victim in victims:\n"
        "                    self.switch.enqueue(port, victim)\n"
        "                return\n"),
}


def _mutant_policy(before, after):
    path = Path(vertigo.__file__)
    source = path.read_text(encoding="utf-8")
    assert source.count(before) == 1, f"{path.name} no longer has the line"
    namespace = {"__name__": "vertigo_mutant"}
    exec(compile(source.replace(before, after), str(path), "exec"),
         namespace)
    return namespace["VertigoPolicy"]


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_recorded_mutant_is_killed(mutant):
    policy_cls = _mutant_policy(*MUTANTS[mutant])

    @given(case=cases())
    @settings(max_examples=2_000, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate])
    def agrees(case):
        assert real_actions(policy_cls, case) == model_actions(case)

    with pytest.raises(AssertionError):
        agrees()
