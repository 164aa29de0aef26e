"""The experiment runner: config → wired network → workload → results.

``run_experiment`` is deterministic for a given :class:`ExperimentConfig`
(all randomness flows from the seed through named RNG streams).
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

from repro.analysis import sanitize as _sanitize
from repro.checkpoint import (
    RunPreempted,
    load_latest,
    write_checkpoint,
    write_progress,
)
from repro.checkpoint import discard as _discard_checkpoint
from repro.checkpoint.runtime import active_run, preemption_requested
from repro.core.flowinfo import MarkingDiscipline
from repro.experiments.config import ExperimentConfig
from repro.net import packet as _packet_mod
from repro.forwarding.dibs import DibsPolicy
from repro.forwarding.drill import DrillPolicy
from repro.forwarding.ecmp import EcmpPolicy
from repro.forwarding.letflow import LetFlowPolicy
from repro.forwarding.pabo import PaboPolicy
from repro.forwarding.vertigo import VertigoPolicy
from repro.host.host import HostStackConfig
from repro.metrics.collector import MetricsCollector
from repro.net.builder import Network, NetworkParams, build_network
from repro.net.fidelity import FidelityController
from repro.net.pfc import PfcController
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.trace import PhaseProfiler, TraceData, Tracer, TraceSampler
from repro.trace import hooks as _trace_hooks
from repro.transport import TRANSPORTS
from repro.transport.base import TransportConfig
from repro.transport.dctcp import DEFAULT_MARKING_THRESHOLD_PKTS
from repro.workload.registry import WorkloadContext, build_workload


def derive_ecn_threshold(params: NetworkParams, mss: int) -> int:
    """DCTCP marking threshold K, scaled to the buffer when it is shallow.

    The paper uses K = 65 packets with 300 KB (≈205-packet) buffers, i.e.
    K ≈ 32 % of the buffer; scaled-down buffers keep the same fraction.
    """
    paper_k = DEFAULT_MARKING_THRESHOLD_PKTS * mss
    scaled_k = max(2 * mss, round(params.buffer_bytes * 0.317))
    return min(paper_k, scaled_k)


def derive_swift_target(params: NetworkParams, mss: int) -> int:
    """Swift's target delay: base RTT plus a queueing allowance.

    The allowance is sized relative to the network, not in absolute
    microseconds: roughly half a bottleneck-port buffer of queueing is
    tolerated before flows back off, mirroring Swift's fabric target of
    a few tens of packets at datacenter line rates.
    """
    base = params.base_rtt_ns(mss + 40)
    host_drain = params.buffer_bytes * 8 * 1_000_000_000 \
        // params.host_rate_bps
    return base + round(0.6 * host_drain)


def derive_ordering_timeout(params: NetworkParams) -> int:
    """Paper §3.3.2: time to traverse the network with almost-full buffers.

    One host-rate port drain plus two fabric-rate port drains.
    """
    host_drain = params.buffer_bytes * 8 * 1_000_000_000 \
        // params.host_rate_bps
    fabric_drain = params.buffer_bytes * 8 * 1_000_000_000 \
        // params.fabric_rate_bps
    return host_drain + 2 * fabric_drain


#: Systems whose policy takes no per-run parameter: the policy's own
#: defaults (DRILL(2, 1), DIBS's and PABO's budgets) are the one spelling.
_PLAIN_POLICIES = {"ecmp": EcmpPolicy, "drill": DrillPolicy,
                   "dibs": DibsPolicy, "pabo": PaboPolicy}


def _policy_factory(config: ExperimentConfig):
    name = config.system.name
    if name == "vertigo":
        params = config.system.vertigo_switch
        return lambda switch, rng: VertigoPolicy(switch, rng, params)
    if name == "letflow":
        # Flowlet gap: a couple of base RTTs (LetFlow's guidance).
        gap = 2 * config.network.base_rtt_ns()
        return lambda switch, rng: LetFlowPolicy(switch, rng,
                                                 flowlet_gap_ns=gap)
    return _PLAIN_POLICIES[name]


def resolve_transport_config(config: ExperimentConfig) -> TransportConfig:
    """The transport config the hosts run: topology-derived inputs filled.

    The one home of the "non-positive = auto" rule of
    ``swift_target_delay_ns`` / ``dcqcn_rate_bps`` / ``dcqcn_timer_ns``.
    """
    transport = config.transport
    network = config.network
    filled = {}
    if config.transport_name == "swift":
        target = transport.swift_target_delay_ns
        if target <= 0:
            target = derive_swift_target(network, transport.mss)
            filled["swift_target_delay_ns"] = target
        # Swift keeps fine-grained retransmission timers (a few target
        # delays), not TCP's 10 ms-class minRTO (paper [47]).
        fine_rto = max(1_000_000, 4 * target)
        if transport.min_rto_ns > fine_rto:
            filled["min_rto_ns"] = fine_rto
            filled["init_rto_ns"] = min(transport.init_rto_ns, 8 * fine_rto)
    if config.transport_name == "dcqcn":
        if transport.dcqcn_rate_bps <= 0:
            filled["dcqcn_rate_bps"] = network.host_rate_bps
        if transport.dcqcn_timer_ns <= 0:
            # Increase period: a few base RTTs, so fast recovery spans
            # roughly the feedback loop it is probing.
            filled["dcqcn_timer_ns"] = 2 * network.base_rtt_ns()
    if config.system.name == "dibs":
        # DIBS disables fast retransmit to tolerate deflection reordering
        # (paper §2), leaving RTOs as the only loss recovery.
        filled["fast_retransmit"] = False
    return replace(transport, **filled)


class FlowKernel:
    """Opens flows: the glue between workload generators and host stacks.

    A picklable replacement for the historical ``open_flow`` closure —
    generators hold a bound :meth:`open_flow`, and every flow's
    endpoints share the kernel's two completion callbacks (bound
    methods made once, called with the endpoint), so nothing is built
    per flow and the whole callback web rides in a checkpoint.  Flow
    ids are per-kernel, keeping same-process runs bit-identical for a
    given seed.
    """

    def __init__(self, engine: Engine, metrics: MetricsCollector,
                 network: Network, fidelity) -> None:
        self.engine = engine
        self.metrics = metrics
        self.network = network
        self.fidelity = fidelity
        self._flow_ids = itertools.count(1)
        # Bound once: every endpoint of every flow holds these two.
        self._on_rx_done = self._rx_done
        self._on_tx_done = self._tx_done
        #: flow id -> generator barrier callback (coflow stages), for
        #: the flows that have one; popped when the flow completes.
        self._barriers: Dict[int, Callable[[int], None]] = {}

    def open_flow(self, src: int, dst: int, size: int,
                  is_incast: bool = False, query_id: Optional[int] = None,
                  coflow_id: Optional[int] = None, on_done=None) -> None:
        flow_id = next(self._flow_ids)
        self.metrics.flow_started(flow_id, src, dst, size, self.engine.now,
                                  is_incast=is_incast, query_id=query_id,
                                  coflow_id=coflow_id)
        if on_done is not None:
            self._barriers[flow_id] = on_done
        hosts = self.network.hosts
        hosts[dst].open_receiver(flow_id, src, size,
                                 on_complete=self._on_rx_done)
        sender = hosts[src].open_sender(flow_id, dst, size,
                                        on_complete=self._on_tx_done)
        if self.fidelity is not None:
            self.fidelity.adopt(sender)
        sender.start()

    def _rx_done(self, receiver) -> None:
        flow_id = receiver.flow_id
        ordering = receiver.host.ordering
        if ordering is not None:
            ordering.flow_done(flow_id)
        # Generator barrier callback (coflow stages); fires after
        # metrics.flow_completed has recorded the flow.
        on_done = self._barriers.pop(flow_id, None)
        if on_done is not None:
            on_done(flow_id)

    def _tx_done(self, sender) -> None:
        sender.host.sender_done(sender.flow_id)


class LiveRun:
    """The complete live simulation: the object graph one checkpoint
    pickles.

    Everything reachable from here — engine calendar, network, host
    stacks, transports, generators, RNG streams, telemetry, tracer — is
    captured in a single ``pickle.dumps``, so shared references (e.g.
    one RNG stream held by the registry and a policy) stay aliased on
    restore.  Wall-clock profiling lives *outside*, per process.
    """

    def __init__(self, config: ExperimentConfig, engine: Engine,
                 rng: RngRegistry, metrics: MetricsCollector,
                 network: Network, pfc, fidelity, kernel: FlowKernel,
                 generators, telemetry, injector, sampler,
                 tracer) -> None:
        self.config = config
        self.engine = engine
        self.rng = rng
        self.metrics = metrics
        self.network = network
        self.pfc = pfc
        self.fidelity = fidelity
        self.kernel = kernel
        self.generators = generators
        self.telemetry = telemetry
        self.injector = injector
        self.sampler = sampler
        self.tracer = tracer
        #: Module-global packet-uid watermark, captured at snapshot time
        #: so the restoring process can advance past every live uid.
        self.uid_watermark = 0
        #: Simulated time this world was last restored at, or None for
        #: a from-scratch build (checkpoint lineage, non-digest).
        self.restored_from_ns: Optional[int] = None
        #: Checkpoints written by this run so far (lineage, non-digest).
        self.checkpoints_written = 0


@dataclass
class EngineStats:
    """Picklable stand-in for a drained :class:`Engine` in results that
    cross process boundaries (the live engine's calendar holds closures)."""

    now: int = 0
    events_executed: int = 0


@dataclass
class RunResult:
    """Outcome of one simulation run.

    ``network`` and ``engine`` reference the live simulation objects when
    the run happened in this process; results transferred from a worker
    process (:mod:`repro.experiments.parallel`) carry ``network=None``
    and an :class:`EngineStats` snapshot instead — everything a figure,
    summary row, or determinism digest consumes survives the transfer.
    """

    config: ExperimentConfig
    metrics: MetricsCollector
    network: Optional[Network]
    engine: Engine
    bg_flows_generated: int
    queries_issued: int
    #: Coflows launched by coflow generators; 0 when none configured.
    coflows_launched: int = 0
    #: The congestion monitor (``config.telemetry_interval_ns``),
    #: detached from the live run, or None.
    telemetry: Optional[object] = None
    #: Detached observability record (``config.trace`` enabled), or None.
    trace: Optional[TraceData] = None
    #: Wall seconds per run phase (build/run/finalize).  Nondeterministic
    #: by nature; excluded from digests and deterministic exports.
    profile: Dict[str, float] = field(default_factory=dict)
    #: Fidelity-controller summary (mode residency, transitions) when the
    #: analytic path was enabled; None in pure packet mode.  Deterministic
    #: integers — part of the run digest.
    fidelity: Optional[Dict[str, object]] = None
    #: PFC-controller summary (pause events/time, headroom drops) when
    #: PFC was enabled; None otherwise.  Deterministic integers — part
    #: of the run digest together with the class-keyed drop counters.
    pfc: Optional[Dict[str, object]] = None
    #: Checkpoint lineage (``restored_from_ns``, ``checkpoints_written``,
    #: ``path``) when checkpointing was active; None otherwise.
    #: Execution metadata — never part of the run digest.
    checkpoint: Optional[Dict[str, object]] = None
    #: One-time telemetry notices raised during the run (e.g. the
    #: fidelity demotion-cascade counter).  Non-digest diagnostics.
    notices: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.config.sim_time_ns

    def portable(self) -> "RunResult":
        """A picklable copy safe to ship between processes.

        Drops the live network (hosts and switches hold closures),
        snapshots the engine counters and copies the two dicts a caller
        may write to; every other field is shared as is (the telemetry
        monitor was detached from the live run at finalize).
        """
        return replace(
            self, network=None,
            engine=EngineStats(now=self.engine.now,
                               events_executed=self.engine.events_executed),
            profile=dict(self.profile), notices=dict(self.notices))

    def report(self):
        """The unified :class:`~repro.experiments.report.RunReport`."""
        from repro.experiments.report import RunReport

        return RunReport.from_result(self)

    def row(self) -> Dict[str, float]:
        """One summary row — the quantities the paper's figures report."""
        return self.report().row()


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Build, run, and measure one simulation.

    With ``config.sanitize`` the whole run — including network
    construction, so construction-bound checks attach — executes under
    the runtime invariant sanitizer.

    With ``config.checkpoint`` set, the run *auto-resumes* from its
    managed checkpoint (keyed by config digest) if one exists — so a
    crashed or preempted run simply reruns — and deletes it on
    successful completion.  Checkpointing never changes results: a
    restored run's digest is byte-identical to the uninterrupted run.
    """
    if config.sanitize and not _sanitize.enabled():
        with _sanitize.scoped(True):
            return _run_experiment(config)
    return _run_experiment(config)


def _run_experiment(config: ExperimentConfig) -> RunResult:
    from repro.experiments.digest import config_digest

    profiler = PhaseProfiler()
    digest = config_digest(config)
    managed_path = None
    if config.checkpoint is not None:
        managed_path = config.checkpoint.resolve_path(digest)

    # active_run() spans the WHOLE task, not just the epoch loop: a
    # SIGTERM landing during build or finalize must latch (and surface
    # as RunPreempted at the next boundary, or simply let the task
    # finish) rather than raise SystemExit inside a pool worker —
    # concurrent.futures ships BaseException back through the future,
    # which would read as a crash instead of a preemption.
    with active_run():
        world = None
        with profiler.phase("build"):
            if managed_path is not None:
                found = load_latest(managed_path, expect_config=digest)
                if found is not None:
                    _header, world, _used = found
            if world is not None:
                _packet_mod.advance_uid_watermark(world.uid_watermark)
                world.restored_from_ns = world.engine.now
            else:
                world = _build_world(config)

        _run_epochs(world, profiler, managed_path, digest)

        result = _finalize(world, profiler, managed_path)
    if managed_path is not None:
        # The checkpoint is consumed by successful completion.
        _discard_checkpoint(managed_path)
    return result


def _build_world(config: ExperimentConfig) -> LiveRun:
    """Construct the full live simulation for ``config`` (build phase)."""
    tracer = Tracer(config.trace) if config.trace is not None else None
    engine = Engine()
    rng = RngRegistry(config.seed)
    metrics = MetricsCollector()
    system = config.system

    transport = resolve_transport_config(config)
    network_params = config.network
    if config.transport_name in ("dctcp", "dcqcn") \
            and network_params.ecn_threshold_bytes is None:
        network_params = replace(
            network_params,
            ecn_threshold_bytes=derive_ecn_threshold(network_params,
                                                     transport.mss))

    is_vertigo = system.name == "vertigo"
    ordering_timeout = system.ordering_timeout_ns \
        if system.ordering_timeout_ns is not None \
        else derive_ordering_timeout(network_params)
    stack = HostStackConfig(
        transport_cls=TRANSPORTS[config.transport_name],
        transport=transport,
        vertigo_marking=is_vertigo,
        vertigo_ordering=is_vertigo and system.ordering,
        marking_discipline=system.marking_discipline,
        boost_factor=system.boost_factor,
        boosting=system.boosting,
        ordering_timeout_ns=ordering_timeout,
    )

    use_ranked = is_vertigo and system.vertigo_switch.scheduling
    network = build_network(engine, config.topology, network_params,
                            metrics, stack, _policy_factory(config), rng,
                            use_ranked_queues=use_ranked, pfc=config.pfc)

    pfc = None
    if config.pfc.enabled:
        pfc = PfcController(engine, config.pfc, network)
        pfc.install()
        network.pfc = pfc
        for host in network.hosts:
            host.enable_nic_backpressure()

    fidelity = None
    if config.fidelity.active:
        fidelity = FidelityController(engine, network, config.fidelity)
        fidelity.install()

    kernel = FlowKernel(engine, metrics, network, fidelity)

    workload = config.workload
    if workload.warmup_ns or workload.cooldown_ns:
        window_end = config.sim_time_ns - workload.cooldown_ns
        if workload.warmup_ns >= window_end:
            raise ValueError(
                f"warmup ({workload.warmup_ns} ns) plus cooldown "
                f"({workload.cooldown_ns} ns) leave no measurement "
                f"window in a {config.sim_time_ns} ns run")
        metrics.set_window(workload.warmup_ns, window_end)
    generators = build_workload(workload, WorkloadContext(
        engine=engine, open_flow=kernel.open_flow, metrics=metrics,
        n_hosts=config.topology.n_hosts,
        host_rate_bps=network_params.host_rate_bps, rng=rng,
        until_ns=config.sim_time_ns))

    telemetry = None
    if config.telemetry_interval_ns:
        from repro.telemetry import TelemetryMonitor

        telemetry = TelemetryMonitor(
            engine, network, interval_ns=config.telemetry_interval_ns)
        telemetry.start()

    injector = None
    if config.faults:
        from repro.faults import FaultInjector

        injector = FaultInjector(engine, network, rng, config.faults)
        injector.schedule()

    sampler = None
    if tracer is not None and config.trace.sample_period_ns:
        sampler = TraceSampler(engine, network, tracer,
                               config.trace.sample_period_ns)
        sampler.start()

    return LiveRun(config=config, engine=engine, rng=rng, metrics=metrics,
                   network=network, pfc=pfc, fidelity=fidelity,
                   kernel=kernel, generators=generators,
                   telemetry=telemetry, injector=injector, sampler=sampler,
                   tracer=tracer)


def _write_world_checkpoint(world: LiveRun, path: str,
                            config_digest: str) -> None:
    """Persist ``world`` atomically and refresh the progress sidecar."""
    world.uid_watermark = _packet_mod.uid_watermark()
    write_checkpoint(path, world, config_digest=config_digest,
                     sim_now_ns=world.engine.now,
                     events_executed=world.engine.events_executed)
    world.checkpoints_written += 1
    _write_world_progress(world, path)


def _write_world_progress(world: LiveRun, path: str) -> None:
    """Refresh the progress sidecar (watchdog stall probe, manifests)."""
    write_progress(path, sim_now_ns=world.engine.now,
                   events_executed=world.engine.events_executed,
                   sim_time_ns=world.config.sim_time_ns)


def _run_epochs(world: LiveRun, profiler: PhaseProfiler,
                managed_path: Optional[str], config_digest: str) -> None:
    """Run the simulation to completion, checkpointing at epoch
    boundaries.

    Boundaries fall on multiples of ``every_ns`` of *simulated* time, so
    a restored run and the uninterrupted run execute identical event
    sequences.  Preemption (SIGTERM/SIGINT latched by
    :mod:`repro.checkpoint.runtime`) is honoured only at boundaries —
    never mid-event — by writing a final checkpoint and raising
    :class:`RunPreempted`.
    """
    engine = world.engine
    end = world.config.sim_time_ns
    # Checkpointing off: one epoch spanning the whole horizon, i.e. a
    # single engine.run() call (and a single engine.span when traced).
    every = world.config.checkpoint.every_ns \
        if managed_path is not None else None
    tracing = _trace_hooks.activated(world.tracer) \
        if world.tracer is not None else nullcontext()

    if managed_path is not None:
        _write_world_progress(world, managed_path)
    with tracing, profiler.phase("run"):
        while True:
            engine.run(until=end if every is None else
                       min(end, (engine.now // every + 1) * every))
            if engine.now >= end:
                break
            _write_world_checkpoint(world, managed_path, config_digest)
            if preemption_requested():
                raise RunPreempted(managed_path, engine.now)
        if managed_path is not None:
            _write_world_progress(world, managed_path)


def _finalize(world: LiveRun, profiler: PhaseProfiler,
              managed_path: Optional[str]) -> RunResult:
    config = world.config
    engine = world.engine
    with profiler.phase("finalize"):
        if world.telemetry is not None:
            # Off the calendar, so its self-rescheduling tick cannot
            # outlive the measured window, and off the live world, so
            # the result carries the monitor itself.
            world.telemetry.detach()
        if world.sampler is not None:
            world.sampler.stop()

        trace_data = None
        if world.tracer is not None:
            topology = config.topology
            trace_data = world.tracer.detach(meta={
                "seed": config.seed,
                "system": config.system.name,
                "transport": config.transport_name,
                "sim_time_ns": config.sim_time_ns,
                "topology": f"{type(topology).__name__}"
                            f"({topology.n_hosts} hosts)",
            })

    fidelity = world.fidelity
    pfc = world.pfc
    generators = world.generators
    notices: Dict[str, object] = {}
    if fidelity is not None and fidelity.cascade_links:
        notices["fidelity_cascade_links"] = fidelity.cascade_links
    lineage = None
    if world.checkpoints_written or world.restored_from_ns is not None:
        lineage = {"restored_from_ns": world.restored_from_ns,
                   "checkpoints_written": world.checkpoints_written,
                   "path": managed_path}
    return RunResult(
        config=config, metrics=world.metrics, network=world.network,
        engine=engine,
        bg_flows_generated=sum(getattr(g, "flows_generated", 0)
                               for g in generators),
        queries_issued=sum(getattr(g, "queries_issued", 0)
                           for g in generators),
        coflows_launched=sum(getattr(g, "coflows_launched", 0)
                             for g in generators),
        telemetry=world.telemetry, trace=trace_data,
        profile=profiler.report(),
        fidelity=(fidelity.summary(engine.now)
                  if fidelity is not None else None),
        pfc=pfc.summary(engine.now) if pfc is not None else None,
        checkpoint=lineage, notices=notices)
