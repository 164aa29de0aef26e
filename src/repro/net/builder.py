"""Network assembly: topology description → live simulated network.

Creates switches (with the queue flavour and forwarding policy the
evaluated system requires), hosts (with the stack composition), links in
both directions, and pre-populates every switch FIB with multipath
next-hop candidates (paper §3.2 assumes pre-populated forwarding tables).

The built :class:`Network` is the *mutation surface* for runtime
rewiring (:mod:`repro.faults`): it registers every directed link and its
transmitting port under canonical endpoint labels (switch names, hosts
as ``h<id>``), tracks the set of dead cables, and recomputes every
switch FIB over the surviving edges on demand
(:meth:`Network.rebuild_routes`).  The topology object itself is never
mutated, so configs can share one across runs.

The network's config blocks live here too — :class:`NetworkParams`,
:class:`PfcConfig` and :class:`FidelityConfig` — so building a config
never loads the PFC or fidelity controller (:mod:`repro.net.pfc`,
:mod:`repro.net.fidelity`); the runner imports each where it builds it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.faults.spec import FaultSpec, cable_key
from repro.host.host import Host, HostStackConfig
from repro.metrics.collector import MetricsCollector
from repro.net.link import Link, Port
from repro.net.packet import MTU_WIRE_BYTES
from repro.net.queues import (
    ClassLaneQueue,
    DropTailQueue,
    RankedQueue,
    SharedBufferPool,
)
from repro.net.switch import Switch
from repro.net.topology import Topology
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import gbps, kb, usecs

PolicyFactory = Callable[[Switch, "RngRegistry"], object]

#: Named RNG streams this module owns (checked by lint rule VR110);
#: trailing-colon entries declare per-entity stream-name prefixes.
RNG_STREAMS = ("policy:",)


def host_label(host_id: int) -> str:
    """The endpoint label hosts are registered under (``h<id>``)."""
    return f"h{host_id}"


def check_cables(faults: Sequence[FaultSpec], topology: Topology) -> None:
    """Refuse a fault on a cable ``topology`` does not have: before any
    run (``config_from_args``) and when a fault injector is built."""
    cables = {cable_key(a, b) for a, b in topology.switch_adjacency}
    cables.update(cable_key(host_label(host), topology.host_tor(host))
                  for host in range(topology.n_hosts))
    for spec in faults:
        if spec.link not in cables:
            a, b = spec.link
            raise ValueError(
                f"fault {spec.describe()}: no cable between {a!r} and "
                f"{b!r} in {topology!r}; endpoints are switch names or "
                f"h<id> host labels")


@dataclass(frozen=True)
class NetworkParams:
    """Physical-layer parameters (paper §4.1 defaults at full scale)."""

    host_rate_bps: int = gbps(10)
    fabric_rate_bps: int = gbps(40)
    host_link_delay_ns: int = usecs(1)
    fabric_link_delay_ns: int = usecs(1)
    buffer_bytes: int = kb(300)          # per-port buffer capacity
    ecn_threshold_bytes: Optional[int] = None
    #: Shared-buffer switches: Dynamic Threshold alpha.  None (default)
    #: keeps the paper's static per-port buffers; a value turns each
    #: switch's port buffers into one DT-managed shared pool of
    #: ``buffer_bytes x n_ports``.
    shared_buffer_alpha: Optional[float] = None

    def base_rtt_ns(self) -> int:
        """Unloaded host-to-host RTT across the fabric (worst case path).

        Two host links and up to four fabric links each way, counting
        serialization of a full-MSS packet at every hop plus the ACK path.
        """
        data_ser = (2 * MTU_WIRE_BYTES * 8 * 1_000_000_000
                    // self.host_rate_bps
                    + 4 * MTU_WIRE_BYTES * 8 * 1_000_000_000
                    // self.fabric_rate_bps)
        prop = 2 * (2 * self.host_link_delay_ns
                    + 4 * self.fabric_link_delay_ns)
        return data_ser + prop


@dataclass(frozen=True)
class PfcConfig:
    """Priority-class lanes and (optionally) lossless PFC.

    ``num_classes`` alone splits every switch egress queue into strict-
    priority lanes (lane 0 drains first); ``enabled`` additionally turns
    on the per-ingress XOFF/XON PAUSE machinery (:mod:`repro.net.pfc`).
    All byte thresholds are integers; 0 (or None for headroom) means
    "derive from the network parameters"
    (:func:`repro.net.pfc.resolve_thresholds`).
    """

    enabled: bool = False
    num_classes: int = 1
    #: Flow → class map: a flow with id ``f`` uses class
    #: ``priority_map[f % len(priority_map)]`` for every packet (data
    #: and ACKs).  The default maps everything to class 0.
    priority_map: Tuple[int, ...] = (0,)
    xoff_bytes: int = 0            # 0 = auto: buffer / (2 * num_classes)
    xon_bytes: int = 0             # 0 = auto: xoff / 2
    #: None = auto (2 x one-way BDP + 2 MTU, lossless); 0 is honoured
    #: literally and *does* drop post-XOFF arrivals (reason
    #: ``pfc_headroom``).
    headroom_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if not self.priority_map:
            raise ValueError("priority_map cannot be empty")
        for pclass in self.priority_map:
            if not 0 <= pclass < self.num_classes:
                raise ValueError(
                    f"priority_map entry {pclass} outside "
                    f"[0, {self.num_classes})")
        if self.xoff_bytes < 0 or self.xon_bytes < 0:
            raise ValueError("PFC thresholds cannot be negative")
        if self.xoff_bytes and self.xon_bytes > self.xoff_bytes:
            raise ValueError("XON threshold must not exceed XOFF")
        if self.headroom_bytes is not None and self.headroom_bytes < 0:
            raise ValueError("headroom cannot be negative")

    @property
    def configured(self) -> bool:
        """True when this config changes the datapath at all."""
        return self.enabled or self.num_classes > 1

    def digest_view(self) -> Tuple:
        """The digest-relevant projection (order is part of the format)."""
        return (self.enabled, self.num_classes, self.priority_map,
                self.xoff_bytes, self.xon_bytes, self.headroom_bytes)


FIDELITY_MODES = ("packet", "flow", "hybrid")


@dataclass(frozen=True)
class FidelityConfig:
    """Fidelity policy block — every field is a digest input.

    ``mode`` selects the engine: ``packet`` (no controller, today's
    behaviour), ``flow`` (links never demote except by fault pinning),
    or ``hybrid`` (demote on congestion signals, promote after a quiet
    epoch; :mod:`repro.net.fidelity`).  The queue-depth and epoch
    thresholds are not options: the controller resolves them from the
    network parameters when it is installed.
    """

    mode: str = "packet"
    #: Demote a link once this many concurrent flows share it.  Moderate
    #: fan-in (the paper's incast degree included, and overlapping
    #: queries) is *modelled* by the analytic fair share; this trigger
    #: is for pathological convergence beyond what deflection absorbs,
    #: where the fair-share model stops tracking the loss tail.  The
    #: default is ~5x the paper's incast degree; lower it for systems
    #: without burst absorption (e.g. plain ECMP baselines).
    demote_shares: int = 64

    def __post_init__(self) -> None:
        if self.mode not in FIDELITY_MODES:
            raise ValueError(
                f"fidelity mode must be one of {FIDELITY_MODES}, "
                f"got {self.mode!r}")
        if self.demote_shares < 1:
            raise ValueError("demote_shares must be >= 1")

    @property
    def active(self) -> bool:
        return self.mode != "packet"

    def digest_view(self) -> Tuple:
        """The canonical tuple fed into the run digest.  The literal
        ``0, 0, 400`` holds the place of three removed fields (two auto
        thresholds and the promotion utilization), keeping the
        five-element shape pinned digests hash."""
        return (self.mode, self.demote_shares, 0, 0, 400)


class Network:
    """A fully wired simulated datacenter network.

    Beyond the device containers, the network carries the runtime
    rewiring state: ``links`` maps each *directed* channel (keyed
    ``(src_label, dst_label)``) to its :class:`~repro.net.link.Link`,
    ``tx_ports`` maps the same key to the transmitting
    :class:`~repro.net.link.Port`, ``port_of`` maps ``(switch name, peer
    key)`` to the egress port index the builder wired, and
    ``dead_cables`` is the live set of failed cables routes are computed
    around.
    """

    def __init__(self, engine: Engine, topology: Topology,
                 params: NetworkParams, metrics: MetricsCollector) -> None:
        self.engine = engine
        self.topology = topology
        self.params = params
        self.metrics = metrics
        self.switches: Dict[str, Switch] = {}
        self.hosts: List[Host] = []
        self.links: Dict[Tuple[str, str], Link] = {}
        self.tx_ports: Dict[Tuple[str, str], Port] = {}
        self.port_of: Dict[Tuple[str, object], int] = {}
        self.dead_cables: Set[Tuple[str, str]] = set()
        #: Installed fidelity controller, or None (pure packet mode;
        #: see repro.net.fidelity).
        self.fidelity = None
        #: Installed PFC controller, or None (see repro.net.pfc).
        self.pfc = None

    def host(self, host_id: int) -> Host:
        return self.hosts[host_id]

    def all_switch_queues(self):
        for switch in self.switches.values():
            for port in switch.ports:
                yield switch.name, port.index, port.queue

    # -- runtime rewiring ------------------------------------------------------

    def cable_links(self, a: str, b: str) -> Tuple[Link, Link]:
        """Both directed links of the cable between endpoints ``a``/``b``."""
        try:
            return self.links[(a, b)], self.links[(b, a)]
        except KeyError:
            raise ValueError(
                f"no cable between {a!r} and {b!r}; endpoints are switch "
                f"names or h<id> host labels") from None

    def set_cable_state(self, a: str, b: str, up: bool) -> None:
        """Cut or restore the full-duplex cable ``a``–``b``.

        Cutting a switch-switch cable removes it from the live edge set
        and recomputes every FIB; cutting a host access cable only stops
        its traffic (routes to the host's ToR are unaffected).  Restoring
        re-kicks both transmit loops so held queues drain immediately.
        """
        forward, backward = self.cable_links(a, b)
        forward.set_up(up)
        backward.set_up(up)
        if self.fidelity is not None:
            self.fidelity.on_fault(a, b)
        key = cable_key(a, b)
        if a in self.switches and b in self.switches:
            if up:
                self.dead_cables.discard(key)
            else:
                self.dead_cables.add(key)
            self.rebuild_routes()
        if up:
            self.tx_ports[(a, b)].kick()
            self.tx_ports[(b, a)].kick()

    def set_cable_loss(self, a: str, b: str, loss_rate: float,
                       loss_rng=None) -> None:
        """Impose (or heal, with 0) corruption loss on both directions."""
        forward, backward = self.cable_links(a, b)
        forward.set_loss(loss_rate, loss_rng)
        backward.set_loss(loss_rate, loss_rng)
        if self.fidelity is not None:
            self.fidelity.on_fault(a, b)

    def rebuild_routes(self, strict: bool = False) -> None:
        """Recompute every switch FIB over the live (non-dead) edge set.

        BFS runs from each ToR excluding ``dead_cables``; switches that
        lose all paths to a ToR get empty candidate tuples, which the
        forwarding policies turn into ``no_route`` drops.  Every switch
        is then told its topology changed so memoized flow-hash and
        deflection decisions are re-derived against the new FIBs.
        """
        topology = self.topology
        next_hops = topology.next_hop_table(exclude=self.dead_cables,
                                            strict=strict)
        port_of = self.port_of
        for host_id in range(topology.n_hosts):
            tor_name = topology.host_tor(host_id)
            for switch in self.switches.values():
                if switch.name == tor_name:
                    switch.fib[host_id] = (port_of[(tor_name, host_id)],)
                else:
                    names = next_hops[switch.name][tor_name]
                    switch.fib[host_id] = tuple(
                        port_of[(switch.name, name)] for name in names)
        for switch in self.switches.values():
            switch.topology_changed()
        if self.fidelity is not None:
            self.fidelity.on_topology_change()


def build_network(engine: Engine, topology: Topology, params: NetworkParams,
                  metrics: MetricsCollector, stack: HostStackConfig,
                  policy_factory: PolicyFactory, rng: RngRegistry,
                  use_ranked_queues: bool = False,
                  pfc: Optional[PfcConfig] = None) -> Network:
    """Instantiate and wire the whole network."""
    network = Network(engine, topology, params, metrics)
    pfc_configured = pfc is not None and pfc.configured
    if pfc_configured and params.shared_buffer_alpha is not None:
        raise ValueError(
            "PFC/priority lanes and shared-buffer (DT) switches are "
            "mutually exclusive: PFC accounts buffers at the ingress, "
            "DT at a shared egress pool")

    # Bound method (picklable): every Link retains it as on_drop, and
    # links ride in checkpoints.
    count_drop = metrics.counters.count_drop

    def make_link(rate_bps: int, delay_ns: int, dst, dst_port: int,
                  name: str) -> Link:
        return Link(engine, rate_bps, delay_ns, dst, dst_port,
                    on_drop=count_drop, label=name)

    # Shared-buffer (DT) switches: one pool per switch, of one port
    # buffer per port the topology gives it.
    pools: Dict[str, SharedBufferPool] = {}
    if params.shared_buffer_alpha is not None:
        n_ports = Counter(topology.host_tor(host)
                          for host in range(topology.n_hosts))
        n_ports.update(name for cable in topology.switch_adjacency
                       for name in cable)
        pools = {name: SharedBufferPool(count * params.buffer_bytes,
                                        alpha=params.shared_buffer_alpha)
                 for name, count in n_ports.items()}

    # Per-lane egress capacity.  With PFC *enabled* the egress queues
    # are effectively unbounded: every resident packet is charged to an
    # ingress gate, so total occupancy is bounded by the sum of gate
    # capacities and the only loss point is gate admission
    # (``pfc_headroom``).  Priority lanes without PFC split the port
    # buffer evenly instead.
    num_lanes = pfc.num_classes if pfc_configured else 1
    if pfc is not None and pfc.enabled:
        lane_capacity = 1 << 60
    elif num_lanes > 1:
        lane_capacity = params.buffer_bytes // num_lanes
    else:
        lane_capacity = params.buffer_bytes

    def make_queue(switch_name: str):
        queue_cls = RankedQueue if use_ranked_queues else DropTailQueue
        if num_lanes > 1:
            queue = ClassLaneQueue(
                queue_cls(lane_capacity,
                          ecn_threshold_bytes=params.ecn_threshold_bytes)
                for _ in range(num_lanes))
        else:
            queue = queue_cls(lane_capacity,
                              ecn_threshold_bytes=params.ecn_threshold_bytes,
                              pool=pools.get(switch_name))
        queue.label = switch_name
        return queue

    for name in topology.switch_names:
        network.switches[name] = Switch(engine, name, metrics.counters)

    for host_id in range(topology.n_hosts):
        host = Host(engine, host_id, stack, metrics)
        if pfc_configured and any(pfc.priority_map):
            host.priority_map = pfc.priority_map
        network.hosts.append(host)

    # (switch name, peer key) -> port index, where peer key is a switch
    # name or a host id.
    port_of = network.port_of

    def register(src_label: str, dst_label: str, link: Link,
                 tx_port: Port) -> None:
        network.links[(src_label, dst_label)] = link
        network.tx_ports[(src_label, dst_label)] = tx_port

    # Host access links.
    for host_id in range(topology.n_hosts):
        tor = network.switches[topology.host_tor(host_id)]
        host = network.hosts[host_id]
        port = tor.add_port(make_queue(tor.name), faces_switch=False)
        port_of[(tor.name, host_id)] = port
        down_link = make_link(
            params.host_rate_bps, params.host_link_delay_ns, host, 0,
            f"{tor.name}->h{host_id}")
        tor.ports[port].attach(down_link)
        up_link = make_link(
            params.host_rate_bps, params.host_link_delay_ns, tor, port,
            f"h{host_id}->{tor.name}")
        host.attach(up_link)
        register(tor.name, host_label(host_id), down_link, tor.ports[port])
        register(host_label(host_id), tor.name, up_link, host.nic)

    # Fabric links (both directions of each cable).
    for name_a, name_b in topology.switch_adjacency:
        switch_a = network.switches[name_a]
        switch_b = network.switches[name_b]
        port_a = switch_a.add_port(make_queue(name_a), faces_switch=True)
        port_b = switch_b.add_port(make_queue(name_b), faces_switch=True)
        port_of[(name_a, name_b)] = port_a
        port_of[(name_b, name_a)] = port_b
        link_ab = make_link(
            params.fabric_rate_bps, params.fabric_link_delay_ns,
            switch_b, port_b, f"{name_a}->{name_b}")
        link_ba = make_link(
            params.fabric_rate_bps, params.fabric_link_delay_ns,
            switch_a, port_a, f"{name_b}->{name_a}")
        switch_a.ports[port_a].attach(link_ab)
        switch_b.ports[port_b].attach(link_ba)
        register(name_a, name_b, link_ab, switch_a.ports[port_a])
        register(name_b, name_a, link_ba, switch_b.ports[port_b])

    # FIBs: expand per-ToR next-hop names into per-host port candidates.
    # Build-time wiring is strict: an unreachable ToR is a config error.
    network.rebuild_routes(strict=True)

    for switch in network.switches.values():
        switch.policy = policy_factory(
            switch, rng.stream(f"policy:{switch.name}"))

    return network
