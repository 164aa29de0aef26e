"""VR004 bad: PR 1's two counter bugs re-seeded — a process-global
rank-queue tie-break and a class-level incast query-id counter.  Both
survive the run, so a second run in the same process starts from
wherever the first one stopped.
"""

import itertools

_seq = itertools.count()


class IncastGenerator:
    _query_ids = itertools.count(1)

    def issue(self):
        return next(self._query_ids), next(_seq)
