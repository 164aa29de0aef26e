"""DRILL (Ghorbani et al., SIGCOMM 2017): micro load balancing.

DRILL(d, m) makes an independent decision for *every packet*: it samples
``d`` random candidate output queues plus the ``m`` queues remembered as
least-loaded from the previous decision, and forwards to the least loaded
of the sampled set.  The default deployed configuration is DRILL(2, 1).
Overflow still tail-drops — DRILL balances load but does not deflect,
which is why it cannot absorb last-hop incast (paper §4.2).
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.forwarding.base import ForwardingPolicy
from repro.net.packet import Packet
from repro.net.switch import Switch

#: DRILL(2, 1): random queues sampled per packet, and least-loaded
#: queues remembered from the previous decision.
SAMPLES_D = 2
MEMORY_M = 1


class DrillPolicy(ForwardingPolicy):
    """DRILL(d, m) per-packet load-aware forwarding."""

    def __init__(self, switch: Switch, rng: random.Random) -> None:
        super().__init__(switch, rng)
        # Memory of previously-best ports, per candidate group (one group
        # per destination prefix; here, per FIB candidate tuple).
        self._memory: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def invalidate_cache(self) -> None:
        """Also forget least-loaded memory keyed by stale FIB tuples."""
        super().invalidate_cache()
        self._memory.clear()

    def route(self, packet: Packet, in_port: int) -> None:
        switch = self.switch
        candidates = switch.candidates(packet.dst)
        if not candidates:
            switch.drop(packet, "no_route")
            return
        if len(candidates) == 1:
            port = candidates[0]
        else:
            sampled = set(self._memory.get(candidates, ()))
            picks = min(SAMPLES_D, len(candidates))
            sampled.update(self.rng.sample(list(candidates), picks))
            # One (occupancy, port) sort yields both the forwarding choice
            # (least loaded, ties by port order) and the m-port memory.
            ports = switch.ports
            scored = sorted((ports[p].queue.bytes, p) for p in sampled)
            port = scored[0][1]
            self._memory[candidates] = tuple(
                p for _, p in scored[:MEMORY_M])
        if switch.ports[port].queue.fits(packet):
            switch.enqueue(port, packet)
        else:
            switch.drop(packet, "overflow")
