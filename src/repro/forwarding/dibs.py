"""DIBS (Zarifis et al., EuroSys 2014): random packet deflection.

The paper's representative of deflection routing (§2).  Path selection is
ordinary ECMP; when the chosen output queue is full, the *arriving* packet
is detoured to a randomly selected port with free buffer space instead of
being dropped.  Deflections are bounded per packet (DIBS relies on the IP
TTL for this); when the bound is hit or no port has space, the packet is
dropped.  Host-facing ports other than the destination's are never
deflection targets.
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.forwarding.base import ForwardingPolicy
from repro.net.packet import Packet
from repro.net.switch import Switch

#: Default per-packet deflection budget (DIBS evaluates TTL-bounded
#: deflection; the paper's setup lets packets bounce many times).
DEFAULT_MAX_DEFLECTIONS = 32


class DibsPolicy(ForwardingPolicy):
    """ECMP forwarding + random deflection on overflow."""

    def __init__(self, switch: Switch, rng: random.Random, *,
                 max_deflections: int = DEFAULT_MAX_DEFLECTIONS) -> None:
        super().__init__(switch, rng)
        self.max_deflections = max_deflections
        self._salt = rng.getrandbits(32)

    def _ecmp_port(self, packet: Packet) -> int:
        return self.flow_hash_port(packet, self._salt)

    def _deflection_targets(self, exclude: int) -> Tuple[int, ...]:
        return self.deflection_targets(exclude)

    def route(self, packet: Packet, in_port: int) -> None:
        port = self._ecmp_port(packet)
        switch = self.switch
        if port is None:
            switch.drop(packet, "no_route")
            return
        if switch.ports[port].queue.fits(packet):
            switch.enqueue(port, packet)
            return
        # Deflect the arriving packet to a random port with space.
        if packet.deflections >= self.max_deflections:
            switch.drop(packet, "deflection_limit")
            return
        targets = [target for target in self._deflection_targets(port)
                   if switch.ports[target].queue.fits(packet)]
        if not targets:
            switch.drop(packet, "deflect_failed")
            return
        choice = self.rng.choice(targets)
        switch.deflected(packet, port, choice)
        switch.enqueue(choice, packet)
