"""VR001 bad: one-line mutant of PR 6's stream-ownership bug in
``runtime/policy.py`` — instead of an undeclared stream name, the
module builds its own *seeded* ``random.Random``.  VR110 sees neither a
``.stream(...)`` literal nor an unseeded draw, and backoff jitter is
outside every run digest, so tier-1 stays green: only VR001 objects.
"""

import random


class SupervisorPolicy:
    backoff_seed = 0

    def backoff_stream(self):
        return random.Random(self.backoff_seed)
