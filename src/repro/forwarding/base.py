"""Forwarding policy interface and shared selection helpers.

Per-packet routing is the simulator's hottest path after the event
kernel, so the base class carries two memoization layers shared by the
concrete policies:

- a per-(flow, src, dst) cache of *static* hash-based port choices
  (:meth:`flow_hash_port`) — the hash is a pure function of the flow key
  and the per-switch salt, so the cached decision is byte-identical to
  recomputing it on every packet (ECMP, for which this is the whole
  routing decision, probes the cache itself and calls
  :meth:`flow_hash_port` only to fill it);
- a per-excluded-port cache of deflection target tuples
  (:meth:`deflection_targets`) — the switch-facing port set only changes
  when the topology does.

Both caches are dropped by :meth:`invalidate_cache`, which
:meth:`repro.net.switch.Switch.topology_changed` invokes on any runtime
FIB/port/link change.  Load-*dependent* decisions (DRILL sampling,
power-of-two choices) are never cached; the per-packet one,
:meth:`power_of_n_choice` at two choices, is instead made without
allocating: it draws what ``rng.sample`` would and compares two depths.
"""

from __future__ import annotations

import abc
import random
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.packet import Packet
from repro.net.switch import Switch


#: Largest population for which ``random.Random.sample(population, 2)``
#: selects from a pool copy (two plain ``_randbelow`` draws); above it
#: ``sample`` tracks picked indices in a set and re-draws on collision.
_SAMPLE_POOL_MAX = 21


class ForwardingPolicy(abc.ABC):
    """Per-switch packet routing and overflow handling.

    Subclasses set :attr:`uses_ranked_queues` when they require RFS-sorted
    output queues (the network builder picks the queue flavour from it).
    """

    uses_ranked_queues = False

    def __init__(self, switch: Switch, rng: random.Random) -> None:
        self.switch = switch
        self.rng = rng
        self._flow_port_cache: Dict[Tuple[int, int, int], int] = {}
        self._deflection_cache: Dict[int, Tuple[int, ...]] = {}

    @abc.abstractmethod
    def route(self, packet: Packet, in_port: int) -> None:
        """Decide the fate of ``packet`` arriving on ``in_port``."""

    def invalidate_cache(self) -> None:
        """Drop memoized routing state after a topology/link change."""
        self._flow_port_cache.clear()
        self._deflection_cache.clear()

    # -- shared helpers --------------------------------------------------------

    def flow_hash_port(self, packet: Packet, salt: int) -> Optional[int]:
        """ECMP-style static per-flow hash over the FIB candidates.

        The choice depends only on (flow id, src, dst, salt) and the FIB
        entry, so it is memoized per flow key; the cache is invalidated by
        :meth:`invalidate_cache` when the topology changes.  Returns
        ``None`` when the live FIB holds no candidates (the switch lost
        every path to the destination) — callers drop with ``no_route``.
        """
        key = (packet.flow_id, packet.src, packet.dst)
        port = self._flow_port_cache.get(key)
        if port is None:
            candidates = self.switch.candidates(packet.dst)
            if not candidates:
                return None
            digest = zlib.crc32(
                f"{key[0]}:{key[1]}:{key[2]}:{salt}".encode())
            port = candidates[digest % len(candidates)]
            self._flow_port_cache[key] = port
        return port

    def deflection_targets(self, exclude: int) -> Tuple[int, ...]:
        """Switch-facing ports other than ``exclude``, memoized."""
        targets = self._deflection_cache.get(exclude)
        if targets is None:
            targets = tuple(port for port in self.switch.switch_ports
                            if port != exclude)
            self._deflection_cache[exclude] = targets
        return targets

    def least_loaded(self, candidates: Sequence[int]) -> int:
        """Port with the lowest queue occupancy; ties by port order."""
        ports = self.switch.ports
        return min((ports[port].queue.bytes, port)
                   for port in candidates)[1]

    def sample_two(self, candidates: Sequence[int]) -> List[int]:
        """Sample up to two distinct candidates uniformly at random."""
        if len(candidates) <= 2:
            return list(candidates)
        return self.rng.sample(candidates, 2)

    def power_of_n_choice(self, candidates: Sequence[int], n: int) -> int:
        """Power-of-``n``-choices: sample ``n`` ports, take the least loaded.

        ``n = 1`` degenerates to uniformly random selection.  The
        per-packet case — two choices among a handful of ports — makes
        the draws of ``rng.sample(list(candidates), 2)`` itself (same
        values, same order, same generator state afterwards) and
        compares the two queue depths directly; everything else goes
        through ``rng.sample``.
        """
        count = len(candidates)
        if count == 0:
            raise ValueError("no candidate ports")
        if count == 1:
            return candidates[0]
        if n <= 1:
            return self.rng.choice(list(candidates))
        if n != 2 or count > _SAMPLE_POOL_MAX:
            return self.least_loaded(
                candidates if count <= n
                else self.rng.sample(list(candidates), n))
        if count == 2:
            first, second = candidates
        else:
            # sample() draws from a pool copy and moves the pool's last
            # entry into the first pick's vacancy before drawing again;
            # each draw is _randbelow's getrandbits loop.
            getrandbits = self.rng.getrandbits
            bits = count.bit_length()
            pick = getrandbits(bits)
            while pick >= count:
                pick = getrandbits(bits)
            rest = count - 1
            bits = rest.bit_length()
            other = getrandbits(bits)
            while other >= rest:
                other = getrandbits(bits)
            first = candidates[pick]
            second = candidates[rest if other == pick else other]
        ports = self.switch.ports
        first_bytes = ports[first].queue.bytes
        second_bytes = ports[second].queue.bytes
        if first_bytes < second_bytes \
                or (first_bytes == second_bytes and first < second):
            return first
        return second
