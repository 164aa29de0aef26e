"""VR002 bad: one-line mutant of PR 1's process-global rank-queue
tie-break — the FIFO sequence number is read from a monotonic clock
instead.  It is strictly increasing on this box, so pop order, every
pinned digest and all of tier-1 are unchanged; on a coarser clock two
pushes tie and the order is up to the heap.  Only VR002 objects.
"""

import heapq
import time


class RankQueue:
    def __init__(self):
        self._heap = []

    def push(self, rank, item):
        seq = time.monotonic_ns()
        heapq.heappush(self._heap, (rank, seq, item))
