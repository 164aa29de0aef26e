"""Configuration of one experiment.

An :class:`ExperimentConfig` fully determines a simulation run: topology,
physical parameters, the evaluated system (forwarding + host stack), the
transport, the workload mix, the simulated duration, and the seed.

Two constructors cover the common cases:

- :meth:`ExperimentConfig.paper_profile` — the paper's full-scale setup
  (320-server leaf-spine, 10/40 Gbps, 300 KB buffers, 5 s).  Constructible
  and correct, but far too slow to sweep in pure Python.
- :meth:`ExperimentConfig.bench_profile` — the scaled instance used by the
  benchmark harness (32 hosts, 200/160 Mbps, buffers, RTOs and ECN
  thresholds scaled together), preserving the dimensionless ratios that
  drive the paper's comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

from repro.checkpoint.config import CheckpointConfig
from repro.core.flowinfo import MarkingDiscipline, rotations_for_factor
from repro.faults.spec import FaultSpec
from repro.forwarding.base import VertigoSwitchParams
from repro.net.builder import (
    FidelityConfig,
    NetworkParams,
    PfcConfig,
    check_cables,
)
from repro.net.topology import LeafSpine, Topology, paper_leaf_spine
from repro.sim.units import MILLISECOND, SECOND, gbps, kb, mbps, usecs
from repro.trace.config import TraceConfig
from repro.transport import TRANSPORTS
from repro.transport.base import TransportConfig
from repro.workload.spec import WorkloadSpec, check_hosts, specs_from_legacy

#: The four systems the paper compares (§4.1).
BENCH_SYSTEMS = ("ecmp", "drill", "dibs", "vertigo")
#: Additional baselines from the paper's related work (§5), implemented
#: as extensions: flowlet switching (LetFlow) and packet bounce (PABO).
EXTRA_SYSTEMS = ("letflow", "pabo")
ALL_SYSTEMS = BENCH_SYSTEMS + EXTRA_SYSTEMS


@dataclass(frozen=True)
class SystemConfig:
    """The L2/L3 system under evaluation."""

    name: str = "vertigo"
    vertigo_switch: VertigoSwitchParams = field(
        default_factory=VertigoSwitchParams)
    marking_discipline: MarkingDiscipline = MarkingDiscipline.SRPT
    boost_factor: int = 2
    boosting: bool = True
    ordering: bool = True
    #: None = auto-derive from the network (time to traverse it with
    #: almost-full buffers, §3.3.2 — 360 us at the paper's full scale).
    ordering_timeout_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.name not in ALL_SYSTEMS:
            raise ValueError(f"unknown system {self.name!r}; "
                             f"choose from {ALL_SYSTEMS}")
        # Boosting rotates the RFS field: only a power of two can be
        # undone at the receiver, so any other factor fails before a run.
        rotations_for_factor(self.boost_factor)


@dataclass(frozen=True, init=False)
class WorkloadConfig:
    """Traffic mix: an ordered list of composable workload specs.

    ``specs`` holds :class:`~repro.workload.spec.WorkloadSpec` entries
    (``background``, ``incast``, ``coflow``, ``duty_cycle``), resolved
    by the generator registry (:mod:`repro.workload.registry`) in
    order.  ``warmup_ns``/``cooldown_ns`` trim the measurement window:
    flows, queries, and coflows starting in the first ``warmup_ns`` or
    last ``cooldown_ns`` of the run are excluded from every summary
    statistic (see :meth:`MetricsCollector.set_window`).
    """

    specs: Tuple[WorkloadSpec, ...] = ()
    warmup_ns: int = 0
    cooldown_ns: int = 0

    def __init__(self, specs: Optional[Sequence[WorkloadSpec]] = None, *,
                 warmup_ns: int = 0, cooldown_ns: int = 0) -> None:
        if specs is None:
            # The historical default mix: 15 % cache-follower background,
            # incast inactive.
            specs = specs_from_legacy()
        specs = tuple(specs)
        for spec in specs:
            if not isinstance(spec, WorkloadSpec):
                raise TypeError(f"workload specs must be WorkloadSpec "
                                f"instances, got {spec!r}")
        if warmup_ns < 0 or cooldown_ns < 0:
            raise ValueError("warmup and cooldown must be non-negative")
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "warmup_ns", warmup_ns)
        object.__setattr__(self, "cooldown_ns", cooldown_ns)

    @property
    def total_load(self) -> float:
        """Summed offered load of every load-driven spec."""
        return sum(spec.offered_load for spec in self.specs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulation run.

    A config that exists can run: :meth:`__post_init__` states every
    rule a run depends on, so a bad value fails where the config is
    built (or ``dataclasses.replace``-d), never inside a run.
    """

    topology: Topology = field(default_factory=paper_leaf_spine)
    network: NetworkParams = field(default_factory=NetworkParams)
    system: SystemConfig = field(default_factory=SystemConfig)
    transport_name: str = "dctcp"
    transport: TransportConfig = field(default_factory=TransportConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    sim_time_ns: int = 5 * SECOND
    seed: int = 1
    #: Fault-injection scenario (:mod:`repro.faults`): timed link
    #: down/up and corruption loss, applied deterministically during
    #: the run.  Empty = healthy fabric.
    faults: Tuple[FaultSpec, ...] = ()
    #: Observability (:mod:`repro.trace`): record flow- or packet-level
    #: events and periodic samples during the run.  None (default) keeps
    #: every hook dormant — the traced-off hot path costs one module-
    #: global identity test per hook site.
    trace: Optional[TraceConfig] = None
    #: Simulation fidelity (:mod:`repro.net.fidelity`): ``packet`` keeps
    #: today's pure packet-level path (no controller is even built);
    #: ``flow``/``hybrid`` enable the analytic fast path for flows whose
    #: links are uncongested.  Every field is a digest input.
    fidelity: FidelityConfig = field(default_factory=FidelityConfig)
    #: Priority-class lanes and lossless PFC (:mod:`repro.net.pfc`).
    #: The default (1 class, PFC off) leaves the datapath byte-identical
    #: to the laneless one; any configured value joins the run digest.
    pfc: PfcConfig = field(default_factory=PfcConfig)
    #: In-run checkpointing (:mod:`repro.checkpoint`): snapshot the live
    #: simulation at epoch boundaries so crashed or killed runs resume
    #: instead of restarting.  ``repr=False`` keeps it OUT of
    #: ``config_digest`` — checkpointing is an execution concern and
    #: never changes results, so a checkpointed run keys identically to
    #: the same run without.
    checkpoint: Optional["CheckpointConfig"] = field(default=None,
                                                    repr=False)

    def __post_init__(self) -> None:
        if self.transport_name not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport_name!r}; "
                             f"choose from {tuple(TRANSPORTS)}")
        if self.sim_time_ns <= 0:
            raise ValueError(f"sim_time_ns must be positive, got "
                             f"{self.sim_time_ns}")
        window = self.window
        if window is not None and window[0] >= window[1]:
            raise ValueError(
                f"warmup ({self.workload.warmup_ns} ns) plus cooldown "
                f"({self.workload.cooldown_ns} ns) leave no measurement "
                f"window in a {self.sim_time_ns} ns run")
        check_hosts(self.workload.specs, self.topology.n_hosts)
        if self.faults:
            check_cables(self.faults, self.topology)
        if self.pfc.configured \
                and self.network.shared_buffer_alpha is not None:
            raise ValueError(
                "PFC/priority lanes and shared-buffer (DT) switches are "
                "mutually exclusive: PFC accounts buffers at the ingress, "
                "DT at a shared egress pool")

    @property
    def window(self) -> Optional[Tuple[int, int]]:
        """The ``(start, end)`` ns the summary metrics count flows in, or
        ``None`` when every flow counts."""
        workload = self.workload
        if not (workload.warmup_ns or workload.cooldown_ns):
            return None
        return workload.warmup_ns, self.sim_time_ns - workload.cooldown_ns

    # -- profiles --------------------------------------------------------------------

    @classmethod
    def paper_profile(cls, system: str = "vertigo",
                      transport: str = "dctcp",
                      **workload_kwargs) -> "ExperimentConfig":
        """The paper's full-scale leaf-spine setup (§4.1); the traffic mix
        is :func:`~repro.workload.spec.specs_from_legacy`'s keywords."""
        return cls(
            topology=paper_leaf_spine(),
            network=NetworkParams(host_rate_bps=gbps(10),
                                  fabric_rate_bps=gbps(40),
                                  buffer_bytes=kb(300)),
            system=SystemConfig(name=system),
            transport_name=transport,
            workload=WorkloadConfig(specs_from_legacy(**workload_kwargs)),
            sim_time_ns=5 * SECOND,
        )

    @classmethod
    def bench_profile(cls, system: str = "vertigo", transport: str = "dctcp",
                      *, bg_load: float = 0.15,
                      incast_load: Optional[float] = None,
                      incast_qps: Optional[float] = None,
                      incast_scale: int = 12,
                      incast_flow_bytes: int = 10_000,
                      workload: Optional[Union[WorkloadConfig,
                                               Sequence[WorkloadSpec]]] = None,
                      sim_time_ns: int = 200 * MILLISECOND,
                      topology: Optional[Topology] = None,
                      faults: Sequence[FaultSpec] = (),
                      seed: int = 1, **system_kwargs) -> "ExperimentConfig":
        """Scaled-down instance for laptop-speed sweeps (see DESIGN.md).

        32 hosts at 200 Mbps access / 160 Mbps fabric with 30 KB port
        buffers (leaf uplink capacity 0.8x leaf host capacity,
        approximating the paper's 2.5:1 oversubscription: the fabric, not the access
        links, runs out first under load — the regime where random
        deflection breaks).  The dimensionless ratios that drive the paper's
        comparisons are preserved: the incast first-window burst
        oversubscribes the victim port buffer ~4× (paper: 100 flows x 10
        IW-packets vs a 205-packet buffer ~= 4.9×), the per-query service
        floor is a small fraction of the simulated window, the
        buffer is a handful of BDPs, minRTO is tens of base RTTs, and the
        simulated interval is a few initial-RTO periods (paper: 5 s vs
        1 s init RTO), so RTO-stall dynamics show at the same relative
        magnitude.  RTO constants are scaled accordingly (init 40 ms,
        min 10 ms); the background size tail is capped at 200 KB (8 ms of
        service) so the simulated interval covers many multiples of the
        largest flow's service time, as the paper's 5 s window does.
        """
        if topology is None:
            topology = LeafSpine(n_spines=4, n_leaves=8, hosts_per_leaf=4)
        if workload is None:
            workload = WorkloadConfig(specs_from_legacy(
                bg_load=bg_load,
                bg_size_cap=200_000,
                incast_load=incast_load,
                incast_qps=incast_qps,
                incast_scale=incast_scale,
                incast_flow_bytes=incast_flow_bytes))
        elif not isinstance(workload, WorkloadConfig):
            workload = WorkloadConfig(workload)
        return cls(
            topology=topology,
            network=NetworkParams(host_rate_bps=mbps(200),
                                  fabric_rate_bps=mbps(160),
                                  host_link_delay_ns=usecs(1),
                                  fabric_link_delay_ns=usecs(1),
                                  buffer_bytes=kb(30)),
            system=SystemConfig(name=system, **system_kwargs),
            transport_name=transport,
            transport=TransportConfig(init_rto_ns=40 * MILLISECOND,
                                      min_rto_ns=10 * MILLISECOND),
            workload=workload,
            sim_time_ns=sim_time_ns,
            faults=tuple(faults),
            seed=seed,
        )
