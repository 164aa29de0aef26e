"""PABO (Shi et al., ICC 2017): congestion mitigation via packet bounce.

The second deflection scheme the paper cites ([65]): instead of detouring
an overflowing packet sideways to a random port (DIBS), PABO *bounces* it
back out the port it arrived on, toward the upstream switch, which
re-forwards it once the congested hop drains.  Bounced packets carry a
bounce count; past a threshold they are dropped (mirroring PABO's
bounded-bounce design).

This gives the evaluation a second point in the deflection design space:
backpressure-like (PABO) versus spatial spreading (DIBS) versus selective
spreading (Vertigo).
"""

from __future__ import annotations

import random

from repro.forwarding.base import ForwardingPolicy
from repro.net.packet import Packet
from repro.net.switch import Switch

DEFAULT_MAX_BOUNCES = 16


class PaboPolicy(ForwardingPolicy):
    """ECMP forwarding + bounce-to-upstream on overflow."""

    def __init__(self, switch: Switch, rng: random.Random, *,
                 max_bounces: int = DEFAULT_MAX_BOUNCES) -> None:
        super().__init__(switch, rng)
        self.max_bounces = max_bounces
        self._salt = rng.getrandbits(32)

    def _ecmp_port(self, packet: Packet) -> int:
        return self.flow_hash_port(packet, self._salt)

    def route(self, packet: Packet, in_port: int) -> None:
        switch = self.switch
        port = self._ecmp_port(packet)
        if port is None:
            switch.drop(packet, "no_route")
            return
        if switch.ports[port].queue.fits(packet):
            switch.enqueue(port, packet)
            return
        # Bounce the packet back where it came from.  Host-facing input
        # ports cannot bounce (the host would just resend it into the
        # same queue), nor can a packet that exhausted its bounce budget.
        if (packet.deflections >= self.max_bounces
                or in_port >= len(switch.ports)
                or not switch.port_faces_switch[in_port]
                or not switch.ports[in_port].queue.fits(packet)):
            switch.drop(packet, "bounce_failed")
            return
        switch.deflected(packet, port, in_port)
        switch.enqueue(in_port, packet)
