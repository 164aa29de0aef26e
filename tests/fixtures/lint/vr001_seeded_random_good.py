"""VR001 good: the jitter stream comes from the registry, by name."""

import random

from repro.sim.rng import RngRegistry

RNG_STREAMS = ("runtime.backoff",)


class SupervisorPolicy:
    backoff_seed = 0

    def backoff_stream(self) -> random.Random:
        return RngRegistry(self.backoff_seed).stream("runtime.backoff")
