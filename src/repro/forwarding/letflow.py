"""LetFlow (Vanini et al., NSDI 2017): flowlet switching.

An additional datacenter load-balancing baseline from the paper's related
work (§5).  Flows are split at natural burst gaps: when a packet of a
flow arrives more than the *flowlet gap* after its predecessor, the flow
is rehashed onto a new random equal-cost path.  Packets inside a flowlet
stick to one path, so no reordering is introduced, while elephants still
spread over time.  Overflow tail-drops like ECMP/DRILL — LetFlow balances
load but cannot absorb last-hop incast.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.forwarding.base import ForwardingPolicy
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.sim.units import usecs

#: Default flowlet inactivity gap.  LetFlow suggests on the order of the
#: network RTT; the runner passes two base RTTs of the network it builds.
DEFAULT_FLOWLET_GAP_NS = usecs(500)


class LetFlowPolicy(ForwardingPolicy):
    """Flowlet-gap path switching over equal-cost next hops."""

    def __init__(self, switch: Switch, rng: random.Random, *,
                 flowlet_gap_ns: int = DEFAULT_FLOWLET_GAP_NS) -> None:
        super().__init__(switch, rng)
        if flowlet_gap_ns <= 0:
            raise ValueError("flowlet gap must be positive")
        self.flowlet_gap_ns = flowlet_gap_ns
        # flow id -> (chosen port, last packet time).
        self._flowlets: Dict[int, Tuple[int, int]] = {}
        self.flowlet_switches = 0

    def route(self, packet: Packet, in_port: int) -> None:
        candidates = self.switch.candidates(packet.dst)
        if not candidates:
            self.switch.drop(packet, "no_route")
            return
        now = self.switch.engine.now
        entry = self._flowlets.get(packet.flow_id)
        if (entry is None or now - entry[1] > self.flowlet_gap_ns
                or entry[0] >= len(self.switch.ports)
                or entry[0] not in candidates):
            port = self.rng.choice(list(candidates))
            if entry is not None and entry[0] != port:
                self.flowlet_switches += 1
        else:
            port = entry[0]
        self._flowlets[packet.flow_id] = (port, now)
        if self.switch.ports[port].queue.fits(packet):
            self.switch.enqueue(port, packet)
        else:
            self.switch.drop(packet, "overflow")
