"""ECMP: flow-hash multipath with tail drop.

The most widely deployed datacenter forwarding scheme and the paper's
plainest baseline.  All packets of a flow hash to the same shortest-path
candidate (no reordering), and a full output queue simply drops the
arriving packet.
"""

from __future__ import annotations

import random

from repro.forwarding.base import ForwardingPolicy
from repro.net.packet import Packet
from repro.net.switch import Switch


class EcmpPolicy(ForwardingPolicy):
    """Per-flow static hashing over equal-cost next hops.

    The hash decision is a pure function of the flow key and this
    switch's salt, so it is memoized per flow (``flow_hash_port``);
    :meth:`~repro.forwarding.base.ForwardingPolicy.invalidate_cache`
    drops the memo on topology changes.
    """

    def __init__(self, switch: Switch, rng: random.Random) -> None:
        super().__init__(switch, rng)
        # Per-switch salt decorrelates hash decisions across hops and
        # avoids ECMP polarization, as deployed switches do.
        self._salt = rng.getrandbits(32)

    def route(self, packet: Packet, in_port: int) -> None:
        port = self._flow_port_cache.get(
            (packet.flow_id, packet.src, packet.dst))
        if port is None:
            port = self.flow_hash_port(packet, self._salt)
            if port is None:
                self.switch.drop(packet, "no_route")
                return
        switch = self.switch
        if switch.ports[port].queue.fits(packet):
            switch.enqueue(port, packet)
        else:
            switch.drop(packet, "overflow")
