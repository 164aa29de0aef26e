"""Wall-clock phase attribution for simulation runs.

The experiment runner wraps its phases — network construction, the
event loop, result finalization — in :meth:`PhaseProfiler.phase` scopes,
so every :class:`~repro.experiments.runner.RunResult` carries a
``profile`` dict attributing the run's wall time to phases (the
benchmark ledger's ``runtime.*`` metrics are computed from it).

Wall-clock readings are nondeterministic by nature, so the profile is
deliberately **excluded** from the deterministic trace exports and from
the run digest: it rides on the result object (and on
:class:`~repro.experiments.report.RunReport`) only.  The cost is a pair
of ``perf_counter`` calls per phase per run — nothing per event.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator


class PhaseProfiler:
    """Accumulates wall seconds per named phase."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()  # noqa: VR002 - measurement harness
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start  # noqa: VR002
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def report(self, precision: int = 6) -> Dict[str, float]:
        """Phase → wall seconds, rounded, in phase-name order."""
        return {name: round(seconds, precision)
                for name, seconds in sorted(self.seconds.items())}
