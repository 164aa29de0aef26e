"""VR002 good: the tie-break is a per-instance counter."""

import heapq


class RankQueue:
    def __init__(self):
        self._heap = []
        self._seq = 0

    def push(self, rank, item):
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (rank, seq, item))
