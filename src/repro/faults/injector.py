"""Deterministic fault scheduling against a live network.

The :class:`FaultInjector` turns a tuple of
:class:`~repro.faults.spec.FaultSpec` into engine events (integer
nanoseconds, priority ``FAULT_PRIORITY`` so a fault lands *before*
same-instant packet events and the rewired dataplane handles them) and
applies each through the :class:`~repro.net.builder.Network` rewiring
surface — :meth:`~repro.net.builder.Network.set_cable_state`,
``set_cable_rate``, ``set_cable_loss``.

Determinism: specs are sorted by ``(at_ns, spec order)`` before
scheduling, corruption loss draws from a per-cable named RNG stream
created eagerly at construction (so stream creation order never depends
on event interleaving), and every application is recorded on
``applied`` — the run's fault timeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.faults.spec import FaultSpec
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.builder import Network

#: Faults sort before ordinary (priority 0) events at the same instant:
#: a cable cut at t takes effect before packets delivered at t.
FAULT_PRIORITY = -1

#: Named RNG streams this module owns (checked by lint rule VR110);
#: one per-cable loss stream, keyed by the canonical cable name.
RNG_STREAMS = ("faultloss:",)


class FaultInjector:
    """Schedules and applies a fault scenario on a built network."""

    def __init__(self, engine: Engine, network: "Network",
                 rng: RngRegistry, faults: Sequence[FaultSpec]) -> None:
        self.engine = engine
        self.network = network
        self.faults = tuple(faults)
        #: (time_ns, spec) log of faults applied so far, in order.
        self.applied: List[Tuple[int, FaultSpec]] = []
        self._validate()
        # Pre-create one loss stream per cable with a loss fault, keyed
        # by the canonical cable name — creation order is spec order,
        # never event-interleaving order.
        self._loss_streams = {}
        for spec in self.faults:
            if spec.kind == "loss" and spec.link not in self._loss_streams:
                a, b = spec.link
                self._loss_streams[spec.link] = rng.stream(
                    f"faultloss:{a}-{b}")

    def _validate(self) -> None:
        """Fail fast on cables that do not exist in this network."""
        for spec in self.faults:
            self.network.cable_links(*spec.link)

    def schedule(self) -> None:
        """Install every fault on the engine calendar (call before run)."""
        now = self.engine.now
        ordered = sorted(enumerate(self.faults),
                         key=lambda pair: (pair[1].at_ns, pair[0]))
        for _, spec in ordered:
            if spec.at_ns < now:
                raise ValueError(
                    f"fault {spec.describe()} is scheduled in the past "
                    f"(now={now})")
            self.engine.schedule(spec.at_ns - now, self._apply, spec,
                                 priority=FAULT_PRIORITY)

    def _apply(self, spec: FaultSpec) -> None:
        network = self.network
        a, b = spec.link
        if spec.kind == "down":
            network.set_cable_state(a, b, up=False)
        elif spec.kind == "up":
            network.set_cable_state(a, b, up=True)
        elif spec.kind == "rate":
            network.set_cable_rate(a, b, spec.rate_bps)
        else:  # "loss"
            network.set_cable_loss(a, b, spec.loss_rate,
                                   self._loss_streams.get(spec.link))
        self.applied.append((self.engine.now, spec))
