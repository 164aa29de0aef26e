"""Deterministic per-component random streams.

Every stochastic component (each switch's power-of-two sampler, the
workload generators, ECMP hashing salt, ...) draws from its own named
``random.Random`` stream derived from a single experiment seed.  This
keeps runs reproducible and, crucially, keeps one component's draw count
from perturbing another's (adding a switch does not change the workload).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngRegistry:
    """Factory of independent, deterministically seeded random streams.

    Pickling a registry (a checkpoint) captures every named stream
    *object*, so components holding direct stream references stay
    aliased to the registry's streams across a restore.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream's seed mixes the experiment seed with a stable hash of
        the name, so streams are independent of creation order.
        """
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def fork(self, salt: str) -> "RngRegistry":
        """Derive a new registry whose streams are independent of ours."""
        digest = hashlib.sha256(f"{self.seed}:{salt}".encode("utf-8")).digest()
        return RngRegistry(int.from_bytes(digest[8:16], "big"))
