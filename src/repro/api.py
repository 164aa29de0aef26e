"""repro.api — the fluent public experiment surface.

One import gives the whole workflow::

    from repro.api import Experiment

    report = (Experiment.bench()
              .system("vertigo")
              .transport("dctcp")
              .workload(bg_load=0.5, incast_load=0.25)
              .trace(level="flow", sample_us=100)
              .run()
              .report())
    print(report.row())

The builder is a thin, deferred veneer over
:class:`~repro.experiments.config.ExperimentConfig`: nothing is
constructed until :meth:`Experiment.build`, which delegates to the same
``bench_profile`` / ``paper_profile`` constructors the config class
exposes.  A façade-built run is therefore digest-identical to one from
the equivalent hand-built config — the builder can never drift from the
profiles it wraps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from dataclasses import replace as _replace

from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.parallel import run_many
from repro.experiments.runner import RunResult, run_experiment
from repro.faults.spec import FaultSpec, parse_faults, parse_time_ns
from repro.net.topology import Topology
from repro.sim.units import MILLISECOND
from repro.trace.tracer import TraceConfig
from repro.workload.spec import WorkloadSpec, parse_workload

__all__ = ["Experiment"]

_PROFILES = ("bench", "paper", "bench_fat_tree")


class Experiment:
    """Fluent builder for one experiment (or a seed sweep of it).

    Construct via :meth:`bench` / :meth:`paper` / :meth:`bench_fat_tree`,
    chain setters (each returns ``self``), then :meth:`run` — or
    :meth:`build` to get the underlying
    :class:`~repro.experiments.config.ExperimentConfig`.
    """

    def __init__(self, profile: str = "bench", **profile_kwargs) -> None:
        if profile not in _PROFILES:
            raise ValueError(f"unknown profile {profile!r}; "
                             f"choose from {_PROFILES}")
        self._profile = profile
        self._profile_kwargs: Dict[str, object] = dict(profile_kwargs)
        self._system = "vertigo"
        self._system_kwargs: Dict[str, object] = {}
        self._transport = "dctcp"
        self._transport_overrides: Dict[str, object] = {}
        self._topology: Optional[Topology] = None
        self._seed: Optional[int] = None
        self._sim_time_ns: Optional[int] = None
        self._faults: tuple = ()
        self._workload_specs: Optional[tuple] = None
        self._warmup_ns: Optional[int] = None
        self._cooldown_ns: Optional[int] = None
        self._trace: Optional[TraceConfig] = None
        self._telemetry_interval_ns: Optional[int] = None
        self._sanitize = False

    # -- constructors ----------------------------------------------------------

    @classmethod
    def bench(cls, **profile_kwargs) -> "Experiment":
        """The scaled-down bench profile (laptop-speed sweeps)."""
        return cls("bench", **profile_kwargs)

    @classmethod
    def paper(cls, **profile_kwargs) -> "Experiment":
        """The paper's full-scale §4.1 setup (slow in pure Python)."""
        return cls("paper", **profile_kwargs)

    @classmethod
    def bench_fat_tree(cls, k: int = 4, **profile_kwargs) -> "Experiment":
        """Bench profile on a k-ary fat tree."""
        return cls("bench_fat_tree", k=k, **profile_kwargs)

    # -- fluent setters --------------------------------------------------------

    def system(self, name: str, **system_kwargs) -> "Experiment":
        """Select the evaluated system (``vertigo``, ``ecmp``, ...)."""
        self._system = name
        self._system_kwargs = dict(system_kwargs)
        return self

    def transport(self, name: str, **overrides) -> "Experiment":
        """Select the transport (``dctcp``, ``reno``, ``swift``, ``dcqcn``).

        Keyword overrides patch the resulting
        :class:`~repro.transport.base.TransportConfig` via
        ``with_overrides`` after the profile's defaults are applied.
        """
        self._transport = name
        self._transport_overrides = dict(overrides)
        return self

    def workload(self, *specs: Union[str, WorkloadSpec],
                 warmup: Optional[Union[int, str]] = None,
                 cooldown: Optional[Union[int, str]] = None,
                 **workload_kwargs) -> "Experiment":
        """Set the traffic mix.

        Positional arguments compose a spec-based workload:
        :class:`~repro.workload.spec.WorkloadSpec` objects and/or
        ``--workload`` directive strings (``"coflow:width=8,stages=2"``,
        see :func:`repro.workload.spec.parse_workload`), replacing the
        profile's default mix.  ``warmup``/``cooldown`` trim the
        measurement window (int ns or a time string like ``"10ms"``).
        Keyword arguments are the legacy flat knobs (``bg_load``,
        ``incast_load``, ...) routed through the profile; the two styles
        are mutually exclusive.
        """
        if specs and workload_kwargs:
            raise ValueError("give either workload specs or the legacy "
                             "flat kwargs, not both")
        if specs:
            self._workload_specs = tuple(
                spec if isinstance(spec, WorkloadSpec)
                else parse_workload(spec) for spec in specs)
        if warmup is not None:
            self._warmup_ns = parse_time_ns(warmup) \
                if isinstance(warmup, str) else warmup
        if cooldown is not None:
            self._cooldown_ns = parse_time_ns(cooldown) \
                if isinstance(cooldown, str) else cooldown
        self._profile_kwargs.update(workload_kwargs)
        return self

    def topology(self, topology: Topology) -> "Experiment":
        self._topology = topology
        return self

    def seed(self, seed: int) -> "Experiment":
        self._seed = seed
        return self

    def sim_time_ns(self, sim_time_ns: int) -> "Experiment":
        self._sim_time_ns = sim_time_ns
        return self

    def sim_ms(self, milliseconds: int) -> "Experiment":
        return self.sim_time_ns(milliseconds * MILLISECOND)

    def faults(self, *directives: Union[str, FaultSpec]) -> "Experiment":
        """Fault scenario: ``FaultSpec`` objects and/or directive strings
        (the ``--fault`` CLI syntax, see :func:`repro.faults.parse_faults`).
        """
        specs: List[FaultSpec] = []
        strings: List[str] = []
        for directive in directives:
            if isinstance(directive, FaultSpec):
                specs.append(directive)
            else:
                strings.append(directive)
        if strings:
            specs.extend(parse_faults(strings))
        self._faults = tuple(specs)
        return self

    def trace(self, level: str = "flow", *,
              sample_us: Optional[int] = None,
              config: Optional[TraceConfig] = None,
              **trace_kwargs) -> "Experiment":
        """Enable observability (:mod:`repro.trace`) for the run.

        Either pass a prebuilt ``config`` or the common knobs: ``level``
        (``"flow"`` or ``"packet"``) and ``sample_us`` (sampler period in
        microseconds; None disables the samplers).
        """
        if config is not None:
            self._trace = config
        else:
            period = sample_us * 1000 if sample_us is not None else None
            self._trace = TraceConfig(level=level, sample_period_ns=period,
                                      **trace_kwargs)
        return self

    def telemetry(self, interval_us: int) -> "Experiment":
        """Attach the congestion-telemetry monitor at this period."""
        self._telemetry_interval_ns = interval_us * 1000
        return self

    def sanitize(self, enabled: bool = True) -> "Experiment":
        """Run under the runtime invariant sanitizer."""
        self._sanitize = enabled
        return self

    # -- terminal operations ----------------------------------------------------

    def build(self) -> ExperimentConfig:
        """Materialize the :class:`ExperimentConfig` this builder describes."""
        kwargs = dict(self._profile_kwargs)
        if self._profile == "paper":
            config = ExperimentConfig.paper_profile(
                system=self._system, transport=self._transport, **kwargs)
            # paper_profile fixes topology/duration/seed; apply overrides.
            if self._topology is not None:
                config.topology = self._topology
            if self._sim_time_ns is not None:
                config.sim_time_ns = self._sim_time_ns
            if self._seed is not None:
                config.seed = self._seed
            if self._system_kwargs:
                config = config.with_system(self._system,
                                            **self._system_kwargs)
            if self._faults:
                config.faults = self._faults
        else:
            if self._topology is not None:
                kwargs["topology"] = self._topology
            if self._sim_time_ns is not None:
                kwargs["sim_time_ns"] = self._sim_time_ns
            if self._seed is not None:
                kwargs["seed"] = self._seed
            if self._faults:
                kwargs["faults"] = self._faults
            kwargs.update(self._system_kwargs)
            if self._profile == "bench_fat_tree":
                config = ExperimentConfig.bench_fat_tree(
                    system=self._system, transport=self._transport, **kwargs)
            else:
                config = ExperimentConfig.bench_profile(
                    system=self._system, transport=self._transport, **kwargs)
        if self._workload_specs is not None:
            config.workload = WorkloadConfig(self._workload_specs)
        if self._warmup_ns is not None or self._cooldown_ns is not None:
            config.workload = _replace(
                config.workload,
                warmup_ns=self._warmup_ns or 0,
                cooldown_ns=self._cooldown_ns or 0)
        if self._transport_overrides:
            config.transport = config.transport.with_overrides(
                **self._transport_overrides)
        if self._trace is not None:
            config.trace = self._trace
        if self._telemetry_interval_ns is not None:
            config.telemetry_interval_ns = self._telemetry_interval_ns
        if self._sanitize:
            config.sanitize = True
        return config

    def run(self) -> RunResult:
        """Build and execute the experiment."""
        return run_experiment(self.build())

    def run_seeds(self, seeds: Sequence[int], *,
                  jobs: Optional[int] = None) -> List[RunResult]:
        """Run the same experiment across seeds (optionally in parallel).

        Results come back in seed order and are digest-identical whether
        they executed serially or across worker processes.
        """
        configs = []
        for seed in seeds:
            configs.append(self.seed(seed).build())
        return run_many(configs, jobs=jobs)

    def run_supervised(self, seeds: Sequence[int], *,
                       jobs: Optional[int] = None,
                       policy=None, journal: Optional[str] = None,
                       resume: Optional[str] = None):
        """Run the seed sweep under the crash-tolerant supervisor.

        Same ordering and digests as :meth:`run_seeds`, plus worker-crash
        recovery, per-run wall-clock deadlines, bounded deterministic
        retry, and an optional checkpoint journal (``journal=`` starts
        one, ``resume=`` continues one after an interruption).  Returns a
        :class:`repro.runtime.SweepReport` whose ``results`` are in seed
        order (``None`` for points that could not be recovered).
        """
        from repro.runtime import run_supervised as _run_supervised

        configs = [self.seed(seed).build() for seed in seeds]
        return _run_supervised(configs, jobs=jobs, policy=policy,
                               journal=journal, resume=resume)
