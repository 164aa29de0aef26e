"""VR004 good: both counters live on the instance."""

import itertools


class IncastGenerator:
    def __init__(self):
        self._query_ids = itertools.count(1)
        self._seq = 0

    def issue(self):
        self._seq += 1
        return next(self._query_ids), self._seq
