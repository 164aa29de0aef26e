"""PIEO-style rank queue (paper §4.4, appendix A.3).

Vertigo assumes switch output queues that dequeue in ascending rank order
(SRPT over the RFS field) *and* support two operations the paper adds to
PIEO [Shrivastav, SIGCOMM'19]:

1. extracting the current maximum-rank element ("extraction from the tail
   of the priority list") — used when an arriving packet with a smaller
   RFS displaces a buffered one, and
2. enqueueing a displaced packet to a different queue (deflection), which
   is an ordinary enqueue here plus the extra dequeue above.

``RankQueue`` is PIEO's ordered list taken literally: one array kept
sorted by ``(rank, arrival)``, whose two ends are the two pop orders.
``push`` is a C-speed ``bisect.insort`` (binary search plus one memmove),
``pop_min`` — the per-hop operation — is O(1) at the array's tail, and
``pop_max`` (about one hop in eight) shifts the array once.  A port holds
at most ~200 MTU packets, ~6.4k bare ACKs in the worst case; at those
depths the memmove is cheaper than the second heap, the tombstone set and
the periodic compaction a lazy double-ended heap needs, and the queue
never holds a reference to a packet that has left it.
A switch port's :class:`repro.net.queues.RankedQueue` keeps the same
array inline; the sanitizer holds both to :func:`check_entries`.
"""

from __future__ import annotations

from bisect import insort
from typing import Generic, List, Optional, Tuple, TypeVar

from repro.analysis import sanitize as _sanitize

_SANITIZE = _sanitize.register(__name__)

T = TypeVar("T")


def check_entries(entries: List[Tuple[int, int, T]], issued: int) -> None:
    """Sanitizer: ``(-rank, -arrival, item)`` entries are strictly
    ascending and hold only the ``issued`` arrival numbers handed out."""
    keys = [entry[:2] for entry in entries]
    _sanitize.check(all(a < b for a, b in zip(keys, keys[1:])),
                    "RankQueue entries out of (rank, arrival) order: %r",
                    keys)
    _sanitize.check(all(0 <= -neg_seq < issued for _, neg_seq in keys),
                    "RankQueue holds an arrival number it never issued "
                    "(next is %d): %r", issued, keys)


class RankQueue(Generic[T]):
    """Double-ended priority queue keyed by an integer rank.

    Ties are broken FIFO (earlier insertions dequeue first from the min
    end, and are *kept* longest at the max end), matching a hardware
    priority list that appends equal-rank packets behind their peers.
    """

    def __init__(self) -> None:
        #: ``(-rank, -seq, item)`` ascending: the minimum ``(rank, seq)``
        #: is the *last* entry, the maximum — largest rank, latest
        #: arrival among equals — the first.  ``seq`` is unique, so
        #: items are never compared.
        self._entries: List[Tuple[int, int, T]] = []
        # Per-instance FIFO tie-break sequence; a process-global counter
        # would couple independent queues' state across runs.
        self._seq = 0

    def push(self, rank: int, item: T) -> None:
        insort(self._entries, (-rank, -self._seq, item))
        self._seq += 1
        if _SANITIZE:
            self._sanitize_check()

    def peek_min(self) -> Optional[Tuple[int, T]]:
        if not self._entries:
            return None
        neg_rank, _, item = self._entries[-1]
        return -neg_rank, item

    def peek_max(self) -> Optional[Tuple[int, T]]:
        if not self._entries:
            return None
        neg_rank, _, item = self._entries[0]
        return -neg_rank, item

    def pop_min(self) -> Tuple[int, T]:
        if not self._entries:
            raise IndexError("pop_min from empty RankQueue")
        neg_rank, _, item = self._entries.pop()
        if _SANITIZE:
            self._sanitize_check()
        return -neg_rank, item

    def pop_max(self) -> Tuple[int, T]:
        if not self._entries:
            raise IndexError("pop_max from empty RankQueue")
        neg_rank, _, item = self._entries.pop(0)
        if _SANITIZE:
            self._sanitize_check()
        return -neg_rank, item

    def _sanitize_check(self) -> None:
        check_entries(self._entries, self._seq)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def items(self) -> List[Tuple[int, T]]:
        """Snapshot of live (rank, item) pairs in ascending rank order."""
        return [(-neg_rank, item)
                for neg_rank, _, item in reversed(self._entries)]
