"""Declarative fault specifications and their CLI grammar.

A :class:`FaultSpec` names one scheduled change to one cable of the
fabric: take it down, bring it back up, or impose a probabilistic
corruption loss.  Specs are frozen, hashable and picklable, so they
ride inside :class:`~repro.experiments.config.ExperimentConfig` through
the parallel sweep executor and into the determinism digest unchanged.

Timestamps are integer nanoseconds (the simulator's canonical time unit;
``FaultSpec`` validates this, lint rule VR003 backs it statically) and
the corruption loss draws from a named RNG stream derived from the cable
endpoints, so fault scenarios never perturb any other component's
randomness and digests stay reproducible.

The CLI grammar (``--fault``) packs several events for one cable into a
single directive::

    link:leaf0-spine1:down@50ms,up@120ms
    link:leaf0-h3:loss=0.02@0ms,loss=0@60ms

``<endpoint>`` is a switch name or ``h<id>`` for a host; times accept
``ns``/``us``/``ms``/``s`` suffixes (bare integers are nanoseconds) and
must come to a whole number of nanoseconds (``1.5us`` parses, ``2.5``
does not).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sim.units import MICROSECOND, MILLISECOND, SECOND

#: Recognized fault kinds.
FAULT_KINDS = ("down", "up", "loss")

_TIME_SCALES = {"ns": 1, "us": MICROSECOND, "ms": MILLISECOND, "s": SECOND}

_TIME_RE = re.compile(
    r"^(?P<whole>\d+)(?:\.(?P<frac>\d+))?(?P<unit>ns|us|ms|s)?$")


class FaultParseError(ValueError):
    """A ``--fault`` directive (or a time literal) failed to parse.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working; the CLI catches it to turn a malformed
    directive into a one-line usage error (exit status 2).
    """


def cable_key(a: str, b: str) -> Tuple[str, str]:
    """Canonical (sorted) endpoint pair naming a full-duplex cable."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled change to one cable.

    ``kind`` is one of :data:`FAULT_KINDS`; ``loss_rate`` is required
    for ``loss`` faults (``loss=0`` heals a previously injected
    corruption).
    """

    kind: str
    link: Tuple[str, str]
    at_ns: int
    loss_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if not (isinstance(self.link, tuple) and len(self.link) == 2
                and all(isinstance(end, str) and end for end in self.link)):
            raise ValueError(f"fault link must be a pair of endpoint "
                             f"names, got {self.link!r}")
        if type(self.at_ns) is not int:
            raise ValueError(f"fault timestamps are integer nanoseconds, "
                             f"got {self.at_ns!r} "
                             f"({type(self.at_ns).__name__})")
        if self.at_ns < 0:
            raise ValueError(f"fault timestamp cannot be negative "
                             f"(at_ns={self.at_ns})")
        if self.kind == "loss":
            if self.loss_rate is None \
                    or not 0.0 <= self.loss_rate < 1.0:
                raise ValueError("loss faults need loss_rate in [0, 1)")
        elif self.loss_rate is not None:
            raise ValueError(f"loss_rate is only valid on loss faults, "
                             f"not {self.kind!r}")
        # Canonicalize the endpoint order so equal cables compare equal.
        object.__setattr__(self, "link", cable_key(*self.link))

    def describe(self) -> str:
        """Compact human-readable form (telemetry/event labels)."""
        a, b = self.link
        extra = f"={self.loss_rate:g}" if self.kind == "loss" else ""
        return f"{a}-{b}:{self.kind}{extra}@{self.at_ns}ns"


def parse_time_ns(text: str) -> int:
    """``"50ms"`` / ``"1.5us"`` / ``"1500"`` → integer nanoseconds.

    The decimal is read exactly, with no float: a literal that is not a
    whole number of nanoseconds (``"2.5"``, ``"0.5ns"``) is an error,
    never rounded.
    """
    match = _TIME_RE.match(text.strip())
    if not match:
        raise FaultParseError(f"cannot parse time {text!r} "
                              f"(expected e.g. 50ms, 120us, 1500)")
    frac = match.group("frac") or ""
    scaled = int(match.group("whole") + frac) \
        * _TIME_SCALES[match.group("unit") or "ns"]
    ns, rest = divmod(scaled, 10 ** len(frac))
    if rest:
        raise FaultParseError(f"time {text!r} is not a whole number of "
                              f"nanoseconds")
    return ns


def parse_fault(directive: str) -> Tuple[FaultSpec, ...]:
    """Parse one ``--fault`` directive into its fault specs.

    Grammar: ``link:<a>-<b>:<event>[,<event>...]`` where each event is
    ``down@<time>``, ``up@<time>`` or ``loss=<fraction>@<time>``.
    """
    parts = directive.strip().split(":", 2)
    if len(parts) != 3 or parts[0] != "link":
        raise FaultParseError(
            f"malformed fault directive {directive!r}; expected "
            f"link:<a>-<b>:<event>[,<event>...]")
    _, endpoints, events = parts
    try:
        end_a, end_b = endpoints.split("-", 1)
    except ValueError:
        raise FaultParseError(f"malformed cable {endpoints!r}; expected "
                              f"<a>-<b>, e.g. leaf0-spine1") from None
    if not end_a or not end_b:
        raise FaultParseError(f"malformed cable {endpoints!r}; expected "
                              f"<a>-<b>, e.g. leaf0-spine1")
    link = cable_key(end_a, end_b)
    specs = []
    for event in events.split(","):
        event = event.strip()
        if "@" not in event:
            raise FaultParseError(f"fault event {event!r} has no @<time>")
        action, _, when = event.partition("@")
        at_ns = parse_time_ns(when)
        name, eq, value = action.partition("=")
        name = name.strip().lower()
        if name == "down" or name == "up":
            if eq:
                raise FaultParseError(f"{name} faults take no value "
                                      f"(got {event!r})")
            specs.append(FaultSpec(kind=name, link=link, at_ns=at_ns))
        elif name == "loss":
            try:
                loss_rate = float(value)
            except ValueError:
                raise FaultParseError(
                    f"cannot parse loss fraction {value!r} in "
                    f"{event!r}") from None
            specs.append(FaultSpec(kind="loss", link=link, at_ns=at_ns,
                                   loss_rate=loss_rate))
        else:
            raise FaultParseError(f"unknown fault event {name!r} in "
                                  f"{directive!r}; choose from "
                                  f"{FAULT_KINDS}")
    if not specs:
        raise FaultParseError(f"fault directive {directive!r} has no "
                              f"events")
    return tuple(specs)


def parse_faults(directives) -> Tuple[FaultSpec, ...]:
    """Parse a sequence of ``--fault`` directives into one spec tuple."""
    specs = []
    for directive in directives or ():
        specs.extend(parse_fault(directive))
    return tuple(specs)
