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

from repro.forwarding.base import MAX_DEFLECTIONS, ForwardingPolicy
from repro.net.packet import Packet
from repro.net.switch import Switch


class DibsPolicy(ForwardingPolicy):
    """ECMP forwarding + random deflection on overflow."""

    def __init__(self, switch: Switch, rng: random.Random) -> None:
        super().__init__(switch, rng)
        self._salt = rng.getrandbits(32)

    def route(self, packet: Packet, in_port: int) -> None:
        port = self.flow_hash_port(packet, self._salt)
        switch = self.switch
        if port is None:
            switch.drop(packet, "no_route")
            return
        if switch.ports[port].queue.fits(packet):
            switch.enqueue(port, packet)
            return
        # Deflect the arriving packet to a random port with space.
        if packet.deflections >= MAX_DEFLECTIONS:
            switch.drop(packet, "deflection_limit")
            return
        targets = [target for target in self.deflection_targets(port)
                   if switch.ports[target].queue.fits(packet)]
        if not targets:
            switch.drop(packet, "deflect_failed")
            return
        choice = self.rng.choice(targets)
        switch.deflected(packet, port, choice)
        switch.enqueue(choice, packet)
