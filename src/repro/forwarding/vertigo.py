"""Vertigo's in-network component (paper §3.2): selective deflection.

Forwarding uses the power-of-two-choices paradigm over the FIB candidates.
Output queues are sorted in ascending RFS order (SRPT).  On arrival at a
full output queue, the packet with the *largest* RFS among the arriving
packet and the queue tail is displaced (possibly several tail packets, for
differently-sized packets — paper footnote 4) and becomes the deflection
candidate.  Deflection samples two random switch-facing ports and
enqueues into the least loaded; if both are full — a strong signal of
network-wide congestion — the packet is force-inserted into one of them
at random, tail-dropping the largest-RFS packets, so the flows with the
*least* remaining bytes always survive.

The knobs on :class:`VertigoSwitchParams` expose the paper's ablations:

- ``fw_choices`` / ``def_choices`` — 1 = uniformly random, 2 = power of two
  (Figure 12's 1FW/2FW × 1DEF/2DEF grid).
- ``scheduling`` — False replaces SRPT queues with FIFO and displacement
  with arriving-packet deflection ("No Scheduling", Figure 11a).
- ``deflection`` — False turns the deflection step into a selective drop
  ("No Deflection", Figure 11a).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.forwarding.base import ForwardingPolicy, VertigoSwitchParams
from repro.net.packet import Packet
from repro.net.queues import ClassLaneQueue, RankedQueue
from repro.net.switch import Switch

class VertigoPolicy(ForwardingPolicy):
    """Power-of-two forwarding with selective deflection and dropping."""

    def __init__(self, switch: Switch, rng: random.Random,
                 params: Optional[VertigoSwitchParams] = None) -> None:
        super().__init__(switch, rng)
        self.params = params or VertigoSwitchParams()

    # -- forwarding ------------------------------------------------------------

    def route(self, packet: Packet, in_port: int) -> None:
        switch = self.switch
        params = self.params
        try:
            candidates = switch.fib[packet.dst]
        except KeyError:
            candidates = switch.candidates(packet.dst)  # raises, named
        if not candidates:
            switch.drop(packet, "no_route")
            return
        port = self.power_of_n_choice(candidates, params.fw_choices)
        if switch.ports[port].queue.fits(packet):
            switch.enqueue(port, packet)
            return
        if params.scheduling:
            self._displace_and_enqueue(port, packet)
        else:
            # FIFO queues cannot displace; the arriving packet detours.
            self._deflect(packet, exclude=port)

    def _displace_and_enqueue(self, port: int, packet: Packet) -> None:
        """Insert into a full SRPT queue by displacing larger-RFS packets.

        The displaced packets (or the arriving packet itself, when its RFS
        is the largest) become deflection candidates.  Under priority
        lanes, displacement competes only within the packet's own class
        lane — deflection never evicts traffic from another class.
        """
        queue = self._ranked_lane(port, packet)
        assert isinstance(queue, RankedQueue)
        rank = packet.rank()
        victims: List[Packet] = []
        while not queue.fits(packet):
            tail_rank = queue.tail_rank()
            if tail_rank is None or tail_rank <= rank:
                # Arriving packet has the largest remaining flow size:
                # it detours, together with any already-displaced
                # victims (restoring them is not always possible under
                # shared-buffer thresholds, and they are exactly the
                # packets Vertigo would deflect next anyway).
                self._deflect(packet, exclude=port)
                for victim in victims:
                    self._deflect(victim, exclude=port)
                return
            victims.append(queue.pop_tail(self.switch.engine.now))
        self.switch.enqueue(port, packet)
        for victim in victims:
            self._deflect(victim, exclude=port)

    # -- deflection -------------------------------------------------------------

    def _deflect(self, packet: Packet, exclude: int) -> None:
        switch = self.switch
        params = self.params
        if not params.deflection:
            switch.drop(packet, "selective_drop")
            return
        if packet.deflections >= params.max_deflections:
            switch.drop(packet, "deflection_limit")
            return
        targets = self.deflection_targets(exclude)
        if not targets:
            switch.drop(packet, "no_deflection_target")
            return
        chosen = self.power_of_n_choice(targets, params.def_choices)
        switch.deflected(packet, exclude, chosen)
        if switch.ports[chosen].queue.fits(packet):
            switch.enqueue(chosen, packet)
            return
        # Both randomly sampled queues full: extreme congestion.  Insert
        # into the chosen queue anyway, dropping the largest-RFS packets so
        # the smallest remaining flows keep their buffer space (§3.2).
        self._force_insert(chosen, packet)

    def _ranked_lane(self, port: int, packet: Packet):
        """The queue displacement operates on: the packet's class lane."""
        queue = self.switch.ports[port].queue
        if isinstance(queue, ClassLaneQueue):
            return queue.lane_for(packet)
        return queue

    def _force_insert(self, port: int, packet: Packet) -> None:
        switch = self.switch
        queue = self._ranked_lane(port, packet)
        if not self.params.scheduling or not isinstance(queue, RankedQueue):
            switch.drop(packet, "congestion_drop")
            return
        rank = packet.rank()
        while not queue.fits(packet):
            tail_rank = queue.tail_rank()
            if tail_rank is None or tail_rank <= rank:
                switch.drop(packet, "congestion_drop")
                return
            victim = queue.pop_tail(switch.engine.now)
            switch.drop(victim, "congestion_displaced")
        switch.enqueue(port, packet)
