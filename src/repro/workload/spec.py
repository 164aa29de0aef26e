"""Composable workload specifications and their CLI grammar.

A workload is a list of :class:`WorkloadSpec` entries, each describing
one traffic generator: Poisson ``background`` flows, ``incast`` queries,
``coflow`` shuffles (all-to-all or partition–aggregate stages, measured
by coflow completion time), and ``duty_cycle`` bursts (the same bytes
per period delivered at varying burstiness, after network_tester's
duty-cycle sweeps).  Every generator picks uniformly random endpoints
(:mod:`repro.workload.matrix`).  Specs are frozen, hashable and
picklable, so they ride inside
:class:`~repro.experiments.config.ExperimentConfig` through the
parallel sweep executor unchanged.

The CLI grammar (``--workload``, mirroring ``--fault``) packs one spec
per directive, each key with one spelling (:data:`_KEYS`)::

    background:load=0.3,dist=web_search,cap=200000
    incast:scale=24,load=0.1,bytes=20000
    coflow:width=8,stages=2,load=0.2,pattern=shuffle
    duty_cycle:load=0.3,duty=0.1,period=1ms

Times accept ``ns``/``us``/``ms``/``s`` suffixes (bare integers are
nanoseconds).  A malformed directive raises :class:`WorkloadParseError`
(a :class:`ValueError`), which the CLI turns into a one-line usage
error with exit status 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Optional, Tuple

from repro.faults.spec import parse_time_ns

#: Registered generator kinds, in their canonical order.
WORKLOAD_KINDS = ("background", "incast", "coflow", "duty_cycle")

#: Coflow stage patterns.
COFLOW_PATTERNS = ("shuffle", "partition_aggregate")


class WorkloadParseError(ValueError):
    """A ``--workload`` directive failed to parse.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working; the CLI catches it to report a one-line
    usage error (exit status 2), mirroring ``--fault``.
    """


@dataclass(frozen=True)
class WorkloadSpec:
    """Base class of all workload generator specifications.

    Concrete specs define ``kind`` (a :data:`WORKLOAD_KINDS` entry,
    also the registry key and the ``--workload`` directive head) and
    the knobs of their generator.
    """

    kind: ClassVar[str] = ""

    @property
    def offered_load(self) -> float:
        """Offered load as a fraction of aggregate host bandwidth
        (0.0 when the spec is rate-driven rather than load-driven)."""
        return 0.0


@dataclass(frozen=True)
class BackgroundSpec(WorkloadSpec):
    """Poisson background flows from an empirical size distribution."""

    kind: ClassVar[str] = "background"

    load: float = 0.15
    distribution: str = "cache_follower"
    size_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.load < 0:
            raise ValueError("background load must be non-negative")
        if self.size_cap is not None and self.size_cap <= 0:
            raise ValueError("size_cap must be positive")

    @property
    def offered_load(self) -> float:
        return self.load


@dataclass(frozen=True)
class IncastSpec(WorkloadSpec):
    """Poisson incast queries: ``scale`` servers answer one client."""

    kind: ClassVar[str] = "incast"

    load: Optional[float] = None
    qps: Optional[float] = None
    scale: int = 100
    flow_bytes: int = 40_000

    def __post_init__(self) -> None:
        if self.load is not None and self.qps is not None:
            raise ValueError("give either incast load or qps, not both")
        if self.scale <= 0 or self.flow_bytes <= 0:
            raise ValueError("incast scale and flow size must be positive")

    @property
    def offered_load(self) -> float:
        return self.load or 0.0


@dataclass(frozen=True)
class CoflowSpec(WorkloadSpec):
    """Coflow arrivals: multi-stage shuffles measured by CCT.

    ``shuffle`` runs ``stages`` all-to-all stages of ``width`` × ``width``
    flows (roles alternate between the two worker sets, with a barrier
    between stages); ``partition_aggregate`` runs ``stages`` rounds of
    root→workers scatter followed by workers→root gather.  The coflow
    completes when its last flow completes; coflow completion time (CCT)
    is a first-class metric in :class:`~repro.experiments.report.RunReport`.
    """

    kind: ClassVar[str] = "coflow"

    width: int = 8
    stages: int = 1
    pattern: str = "shuffle"
    flow_bytes: int = 40_000
    load: Optional[float] = None
    cps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.pattern not in COFLOW_PATTERNS:
            raise ValueError(f"unknown coflow pattern {self.pattern!r}; "
                             f"choose from {COFLOW_PATTERNS}")
        if self.width < 1 or self.stages < 1:
            raise ValueError("coflow width and stages must be at least 1")
        if self.flow_bytes <= 0:
            raise ValueError("coflow flow size must be positive")
        if self.load is not None and self.cps is not None:
            raise ValueError("give either coflow load or cps, not both")

    @property
    def offered_load(self) -> float:
        return self.load or 0.0

    @property
    def flows_per_coflow(self) -> int:
        """Total flows one coflow opens across all of its stages."""
        per_stage = self.width * self.width \
            if self.pattern == "shuffle" else 2 * self.width
        return per_stage * self.stages


@dataclass(frozen=True)
class DutyCycleSpec(WorkloadSpec):
    """Bursty background traffic: the same bytes per period, squeezed
    into a ``duty`` fraction of each period (network_tester's sweep
    dimension).  ``duty=1.0`` is plain Poisson background; smaller
    duties deliver the identical offered load in ever-sharper bursts.
    """

    kind: ClassVar[str] = "duty_cycle"

    load: float = 0.15
    duty: float = 1.0
    period_ns: int = 1_000_000
    distribution: str = "cache_follower"
    size_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.load < 0:
            raise ValueError("duty_cycle load must be non-negative")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError("duty must be in (0, 1]")
        if type(self.period_ns) is not int:
            raise ValueError(f"duty_cycle periods are integer nanoseconds, "
                             f"got {self.period_ns!r} "
                             f"({type(self.period_ns).__name__})")
        if self.period_ns <= 0:
            raise ValueError("period must be positive")
        if self.size_cap is not None and self.size_cap <= 0:
            raise ValueError("size_cap must be positive")

    @property
    def offered_load(self) -> float:
        return self.load


#: kind -> spec class (the registry the parser and the generator
#: builders in :mod:`repro.workload.registry` both key on).
SPEC_CLASSES: Dict[str, type] = {
    "background": BackgroundSpec,
    "incast": IncastSpec,
    "coflow": CoflowSpec,
    "duty_cycle": DutyCycleSpec,
}


def _opt_float(text: str) -> Optional[float]:
    if text.lower() in ("none", ""):
        return None
    return float(text)


def _opt_int(text: str) -> Optional[int]:
    if text.lower() in ("none", ""):
        return None
    return int(text)


#: Per-kind key tables: directive key -> (spec field, converter).  One
#: spelling per field, the short one (``dist``, ``cap``, ``bytes``,
#: ``period``); any other key is an "unknown option" parse error.
_Converter = Callable[[str], object]
_KEYS: Dict[str, Dict[str, Tuple[str, _Converter]]] = {
    "background": {
        "load": ("load", float),
        "dist": ("distribution", str),
        "cap": ("size_cap", _opt_int),
    },
    "incast": {
        "load": ("load", _opt_float),
        "qps": ("qps", _opt_float),
        "scale": ("scale", int),
        "bytes": ("flow_bytes", int),
    },
    "coflow": {
        "load": ("load", _opt_float),
        "cps": ("cps", _opt_float),
        "width": ("width", int),
        "stages": ("stages", int),
        "pattern": ("pattern", str),
        "bytes": ("flow_bytes", int),
    },
    "duty_cycle": {
        "load": ("load", float),
        "duty": ("duty", float),
        "period": ("period_ns", parse_time_ns),
        "dist": ("distribution", str),
        "cap": ("size_cap", _opt_int),
    },
}


def parse_workload(directive: str) -> WorkloadSpec:
    """Parse one ``--workload`` directive into its spec.

    Grammar: ``<kind>[:<key>=<value>[,<key>=<value>...]]`` where
    ``<kind>`` is a :data:`WORKLOAD_KINDS` entry and the keys are the
    kind's :data:`_KEYS`.
    """
    head, _, body = directive.strip().partition(":")
    kind = head.strip().lower()
    if kind not in SPEC_CLASSES:
        raise WorkloadParseError(
            f"unknown workload kind {head.strip()!r}; "
            f"choose from {WORKLOAD_KINDS}")
    keys = _KEYS[kind]
    kwargs: Dict[str, object] = {}
    for pair in body.split(",") if body else ():
        pair = pair.strip()
        if not pair:
            continue
        key, eq, value = pair.partition("=")
        key = key.strip().lower()
        if not eq:
            raise WorkloadParseError(
                f"workload option {pair!r} has no =<value> "
                f"(in {directive!r})")
        if key not in keys:
            raise WorkloadParseError(
                f"unknown {kind} option {key!r} in {directive!r}; "
                f"choose from {sorted(keys)}")
        field_name, converter = keys[key]
        try:
            kwargs[field_name] = converter(value.strip())
        except ValueError as exc:
            raise WorkloadParseError(
                f"cannot parse {key}={value.strip()!r} in "
                f"{directive!r}: {exc}") from None
    try:
        return SPEC_CLASSES[kind](**kwargs)
    except ValueError as exc:
        raise WorkloadParseError(
            f"bad {kind} workload {directive!r}: {exc}") from None


def parse_workloads(directives) -> Tuple[WorkloadSpec, ...]:
    """Parse a sequence of ``--workload`` directives into a spec tuple."""
    return tuple(parse_workload(directive) for directive in directives or ())


def specs_from_legacy(bg_load: float = 0.15,
                      bg_size_cap: Optional[int] = None,
                      incast_load: Optional[float] = None,
                      incast_qps: Optional[float] = None,
                      incast_scale: int = 100,
                      incast_flow_bytes: int = 40_000,
                      ) -> Tuple[WorkloadSpec, ...]:
    """The historical flat ``bg_*``/``incast_*`` knobs as a spec pair.

    This is the one normalizer behind the ``bench_profile`` /
    ``paper_profile`` keyword surface and the CLI flags: the resulting
    specs drive the generators through the same registry as new-style
    workloads, and runs built this way are digest-identical to the
    pre-spec implementation (regression-tested).
    """
    return (
        BackgroundSpec(load=bg_load, size_cap=bg_size_cap),
        IncastSpec(load=incast_load, qps=incast_qps, scale=incast_scale,
                   flow_bytes=incast_flow_bytes),
    )
