"""Byte-bounded output queues.

Two queue flavours back switch ports:

- :class:`DropTailQueue` — FIFO with optional ECN marking (DCTCP-style
  instantaneous threshold), used by ECMP / DRILL / DIBS switches.
- :class:`RankedQueue` — dequeues in ascending RFS order (SRPT) and
  additionally exposes the tail (largest-RFS) packet for Vertigo's
  displace-and-deflect operation.  Also supports ECN marking so Vertigo
  composes with DCTCP.

Both account occupancy in bytes against a fixed capacity (the paper uses
300 KB per port).  Overflow *policy* — drop, deflect, displace — is decided
by the forwarding policy in :mod:`repro.forwarding`; the queues only
report whether a packet fits.  That ``fits`` is the capacity test of a
hop: ``push`` does its accounting inline (bytes, counters, shared pool,
ECN mark) behind a guard that raises for a caller that did not ask, and
``pop`` undoes it inline — the per-packet path makes no helper calls.

:class:`ClassLaneQueue` composes N of either flavour into per-priority-
class lanes behind the same interface: ``push``/``fits`` route by the
packet's ``pclass``, ``pop`` serves lanes in strict priority order
(lane 0 first), and ``pop_unpaused`` additionally skips lanes held by
PFC PAUSE (:mod:`repro.net.pfc`; the plain queues have it too: any held
class holds a laneless queue whole).  A port owns a lane queue only when
the experiment configures more than one priority class, so the
single-class datapath is byte-identical to the plain queues.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.analysis import sanitize as _sanitize
from repro.net.packet import Packet
from repro.trace import hooks as _trace_hooks

_SANITIZE = _sanitize.register(__name__)
_TRACE = _trace_hooks.register(__name__)


@dataclass
class QueueStats:
    """Counters accumulated over a queue's lifetime."""

    enqueued: int = 0
    dequeued: int = 0
    ecn_marked: int = 0
    max_bytes: int = 0


class SharedBufferPool:
    """Dynamic Threshold shared-buffer management (Choudhury–Hahne).

    The paper's switches use static per-port buffers; shared-memory
    switches instead let a port's queue grow up to
    ``alpha x (free shared memory)``.  The paper defers exploring buffer
    management (§5) — this pool implements the classic DT policy so the
    ablation benches can compare both regimes.
    """

    def __init__(self, total_bytes: int, alpha: float = 1.0) -> None:
        if total_bytes <= 0:
            raise ValueError("shared buffer must be positive")
        if alpha <= 0:
            raise ValueError("DT alpha must be positive")
        self.total_bytes = total_bytes
        self.alpha = alpha
        self.used_bytes = 0

    @property
    def free_bytes(self) -> int:
        return self.total_bytes - self.used_bytes

    def threshold(self) -> float:
        """Current per-queue occupancy limit."""
        return self.alpha * self.free_bytes

    def admits(self, queue_bytes: int, packet_bytes: int) -> bool:
        if self.used_bytes + packet_bytes > self.total_bytes:
            return False
        return queue_bytes + packet_bytes <= self.threshold()

    def on_push(self, packet_bytes: int) -> None:
        self.used_bytes += packet_bytes

    def on_pop(self, packet_bytes: int) -> None:
        self.used_bytes -= packet_bytes


class _BoundedQueue:
    """Shared byte accounting and ECN marking for both queue flavours."""

    def __init__(self, capacity_bytes: int,
                 ecn_threshold_bytes: Optional[int] = None,
                 pool: Optional[SharedBufferPool] = None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.pool = pool
        self.bytes = 0
        self.stats = QueueStats()
        #: Owning node name, stamped by the builder/host; trace identity.
        self.label = ""
        #: Fidelity demotion callback fired on each ECN mark, or None
        #: (pure packet mode; set by repro.net.fidelity).
        self.mark_hook = None

    def fits(self, packet: Packet) -> bool:
        if self.pool is not None:
            return self.pool.admits(self.bytes, packet.wire_bytes)
        return self.bytes + packet.wire_bytes <= self.capacity_bytes

    @property
    def free_bytes(self) -> int:
        if self.pool is not None:
            return max(0, min(round(self.pool.threshold()) - self.bytes,
                              self.pool.free_bytes))
        return self.capacity_bytes - self.bytes

    def pop_unpaused(self, paused_mask: int,
                     now_ns: int = 0) -> Optional[Packet]:
        """Pop for a port under PFC PAUSE: a laneless queue serves every
        class from one line, so any held class holds it (None)."""
        if paused_mask:
            return None
        return self.pop(now_ns)

    def packets(self) -> List[Packet]:  # pragma: no cover - overridden
        raise NotImplementedError

    def _sanitize_check(self) -> None:
        """Byte-accounting invariants, recomputed from the live packets."""
        tracked = sum(p.wire_bytes for p in self.packets())
        _sanitize.check(tracked == self.bytes,
                        "queue byte accounting drifted: tracked bytes=%d "
                        "but enqueued packets sum to %d", self.bytes, tracked)
        _sanitize.check(self.bytes >= 0,
                        "queue occupancy went negative: %d", self.bytes)
        if self.pool is None:
            _sanitize.check(self.bytes <= self.capacity_bytes,
                            "queue occupancy %d exceeds capacity %d",
                            self.bytes, self.capacity_bytes)
        else:
            _sanitize.check(0 <= self.pool.used_bytes
                            <= self.pool.total_bytes,
                            "shared pool accounting broken: used=%d "
                            "total=%d", self.pool.used_bytes,
                            self.pool.total_bytes)


class DropTailQueue(_BoundedQueue):
    """FIFO output queue with optional DCTCP-style ECN marking."""

    def __init__(self, capacity_bytes: int,
                 ecn_threshold_bytes: Optional[int] = None,
                 pool: Optional[SharedBufferPool] = None) -> None:
        super().__init__(capacity_bytes, ecn_threshold_bytes, pool)
        self._fifo: Deque[Packet] = deque()

    def push(self, packet: Packet, now_ns: int = 0) -> None:
        wire = packet.wire_bytes
        occupied = self.bytes
        pool = self.pool
        if pool is not None:
            if not pool.admits(occupied, wire):
                raise OverflowError("push to full DropTailQueue")
        elif occupied + wire > self.capacity_bytes:
            raise OverflowError("push to full DropTailQueue")
        stats = self.stats
        if (self.ecn_threshold_bytes is not None and packet.ecn_capable
                and occupied >= self.ecn_threshold_bytes):
            packet.ecn_ce = True
            stats.ecn_marked += 1
            if self.mark_hook is not None:
                self.mark_hook()
            if _TRACE is not None and _TRACE.packets:
                _TRACE.record(("pkt.ecn", now_ns, self.label,
                               packet.flow_id, packet.seq))
        self.bytes = occupied = occupied + wire
        if pool is not None:
            pool.on_push(wire)
        stats.enqueued += 1
        if occupied > stats.max_bytes:
            stats.max_bytes = occupied
        self._fifo.append(packet)
        if _SANITIZE:
            self._sanitize_check()

    def pop(self, now_ns: int = 0) -> Packet:
        packet = self._fifo.popleft()
        wire = packet.wire_bytes
        self.bytes -= wire
        if self.pool is not None:
            self.pool.on_pop(wire)
        self.stats.dequeued += 1
        if _SANITIZE:
            self._sanitize_check()
        return packet

    def __len__(self) -> int:
        return len(self._fifo)

    def __bool__(self) -> bool:
        return bool(self._fifo)

    def packets(self) -> List[Packet]:
        return list(self._fifo)


class RankedQueue(_BoundedQueue):
    """SRPT output queue ordered by the packets' RFS rank
    (:meth:`Packet.rank`, read once at push): a ``RankQueue`` array,
    ``(-rank, -arrival, packet)`` ascending, kept inline."""

    def __init__(self, capacity_bytes: int,
                 ecn_threshold_bytes: Optional[int] = None,
                 pool: Optional[SharedBufferPool] = None) -> None:
        super().__init__(capacity_bytes, ecn_threshold_bytes, pool)
        self._entries: List[Tuple[int, int, Packet]] = []
        self._arrivals = 0

    def push(self, packet: Packet, now_ns: int = 0) -> None:
        wire = packet.wire_bytes
        occupied = self.bytes
        pool = self.pool
        if pool is not None:
            if not pool.admits(occupied, wire):
                raise OverflowError("push to full RankedQueue")
        elif occupied + wire > self.capacity_bytes:
            raise OverflowError("push to full RankedQueue")
        stats = self.stats
        if (self.ecn_threshold_bytes is not None and packet.ecn_capable
                and occupied >= self.ecn_threshold_bytes):
            packet.ecn_ce = True
            stats.ecn_marked += 1
            if self.mark_hook is not None:
                self.mark_hook()
            if _TRACE is not None and _TRACE.packets:
                _TRACE.record(("pkt.ecn", now_ns, self.label,
                               packet.flow_id, packet.seq))
        self.bytes = occupied = occupied + wire
        if pool is not None:
            pool.on_push(wire)
        stats.enqueued += 1
        if occupied > stats.max_bytes:
            stats.max_bytes = occupied
        info = packet.flowinfo
        arrival = self._arrivals
        self._arrivals = arrival + 1
        insort(self._entries,
               (-(info.rfs if info is not None else wire), -arrival, packet))
        if _SANITIZE:
            self._sanitize_check()

    def pop(self, now_ns: int = 0) -> Packet:
        packet = self._entries.pop()[2]
        wire = packet.wire_bytes
        self.bytes -= wire
        if self.pool is not None:
            self.pool.on_pop(wire)
        self.stats.dequeued += 1
        if _SANITIZE:
            self._sanitize_check()
        return packet

    def tail_rank(self) -> Optional[int]:
        """The largest buffered rank (the displacement candidate's)."""
        entries = self._entries
        return -entries[0][0] if entries else None

    def pop_tail(self, now_ns: int = 0) -> Packet:
        """Extract the largest-RFS packet (PIEO tail extraction)."""
        packet = self._entries.pop(0)[2]
        wire = packet.wire_bytes
        self.bytes -= wire
        if self.pool is not None:
            self.pool.on_pop(wire)
        self.stats.dequeued += 1
        if _SANITIZE:
            self._sanitize_check()
        return packet

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def packets(self) -> List[Packet]:
        return [packet for _, _, packet in reversed(self._entries)]

    def _sanitize_check(self) -> None:
        from repro.core.scheduler import check_entries  # sanitizer only

        super()._sanitize_check()
        check_entries(self._entries, self._arrivals)


class ClassLaneQueue:
    """N per-priority-class lanes behind the single-queue interface.

    Each lane is a full :class:`DropTailQueue` or :class:`RankedQueue`;
    admission (``fits``/``push``) is decided by the arriving packet's
    lane alone, and ``pop`` drains lanes in strict priority order.
    Aggregate views (``bytes``, ``len``, ``packets``) cover all lanes so
    forwarding policies, the sanitizer, and samplers keep working
    unchanged.  Vertigo's displace-and-deflect operates on
    ``lane_for(packet)`` so deflection respects class lanes.
    """

    __slots__ = ("lanes", "num_classes", "_label")

    def __init__(self, lanes) -> None:
        lanes = list(lanes)
        if not lanes:
            raise ValueError("a lane queue needs at least one lane")
        self.lanes = lanes
        self.num_classes = len(lanes)
        self._label = ""

    # -- per-packet routing ----------------------------------------------------

    def lane_for(self, packet: Packet):
        """The lane serving this packet's priority class."""
        return self.lanes[packet.pclass]

    def fits(self, packet: Packet) -> bool:
        return self.lanes[packet.pclass].fits(packet)

    def push(self, packet: Packet, now_ns: int = 0) -> None:
        self.lanes[packet.pclass].push(packet, now_ns)

    def pop(self, now_ns: int = 0) -> Packet:
        for lane in self.lanes:
            if lane:
                return lane.pop(now_ns)
        raise IndexError("pop from empty ClassLaneQueue")

    def pop_unpaused(self, paused_mask: int,
                     now_ns: int = 0) -> Optional[Packet]:
        """Strict-priority pop skipping PAUSEd lanes (None if all held)."""
        for index, lane in enumerate(self.lanes):
            if lane and not (paused_mask >> index) & 1:
                return lane.pop(now_ns)
        return None

    # -- aggregate views -------------------------------------------------------

    @property
    def bytes(self) -> int:
        total = 0
        for lane in self.lanes:
            total += lane.bytes
        return total

    @property
    def capacity_bytes(self) -> int:
        return sum(lane.capacity_bytes for lane in self.lanes)

    @property
    def free_bytes(self) -> int:
        return sum(lane.free_bytes for lane in self.lanes)

    @property
    def stats(self) -> QueueStats:
        """Merged lane counters (max_bytes sums the per-lane maxima)."""
        merged = QueueStats()
        for lane in self.lanes:
            stats = lane.stats
            merged.enqueued += stats.enqueued
            merged.dequeued += stats.dequeued
            merged.ecn_marked += stats.ecn_marked
            merged.max_bytes += stats.max_bytes
        return merged

    @property
    def label(self) -> str:
        return self._label

    @label.setter
    def label(self, value: str) -> None:
        self._label = value
        for lane in self.lanes:
            lane.label = value

    @property
    def mark_hook(self):
        return self.lanes[0].mark_hook

    @mark_hook.setter
    def mark_hook(self, hook) -> None:
        for lane in self.lanes:
            lane.mark_hook = hook

    def __len__(self) -> int:
        return sum(len(lane) for lane in self.lanes)

    def __bool__(self) -> bool:
        return any(self.lanes)

    def packets(self) -> List[Packet]:
        merged: List[Packet] = []
        for lane in self.lanes:
            merged.extend(lane.packets())
        return merged

    def _sanitize_check(self) -> None:
        for lane in self.lanes:
            lane._sanitize_check()
