"""Per-link fidelity controller: analytic fast path for quiet links.

Most links in an incast experiment are uncongested most of the time, so
their per-packet events are pure overhead — only the incast downlink and
deflection neighbourhoods need packet fidelity.  The controller keeps a
two-point mode lattice per *directed* link:

- **flow (analytic)** — flows whose entire path is analytic skip the
  dataplane: each congestion window round collapses into a single
  completion event whose latency is computed (integer ns throughout)
  from per-hop link rates, propagation delays, current queue occupancy,
  and the number of analytic rounds concurrently in flight on each
  link (the fair-share bottleneck).
- **packet** — today's full store-and-forward path, unchanged.

Links start analytic and *demote* to packet mode when touched by
congestion or failure signals (share count at or above the threshold,
queue depth at or above the ECN/buffer threshold, a deflection, an ECN
mark, a wire drop, or a fault); in ``hybrid`` mode a periodic epoch tick
*promotes* a demoted link back once it has been quiet for a full epoch
(empty queue, idle transmitter, few shares, utilization below the
threshold).  Links touched by fault injection are **pinned** to packet
mode for the rest of the run.

Boundary-conversion invariants (what keeps digests deterministic):

- Mode only gates *eligibility*: packets in flight always complete
  normally, and an analytic round, once scheduled, always runs to its
  completion event (mirroring packets committed to the wire).  Flows
  convert between modes only at round boundaries, when no bytes are
  outstanding, so there is never partial in-flight state to translate.
- A flow enters analytic mode only when every link on its (deterministic
  flow-hashed) path is analytic and unpinned; any demotion on the path
  converts it back to packets at its next round boundary.
- All transition triggers are simulation events, all thresholds are
  integers, and all latency arithmetic is integer nanoseconds, so a
  fixed config yields a fixed event sequence and a fixed digest.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import TYPE_CHECKING, Dict, Optional, Tuple

# FIDELITY_MODES and FidelityConfig stay importable from here: pickled
# configs name this path.
from repro.net.builder import FIDELITY_MODES, FidelityConfig
from repro.net.packet import ACK_WIRE_BYTES
from repro.trace import hooks as _trace_hooks

_TRACE = _trace_hooks.register(__name__)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.builder import Network
    from repro.net.link import Link, Port
    from repro.sim.engine import Engine

#: Knuth multiplicative hash constant; picks one FIB candidate per flow
#: deterministically (mirrors the flow-hash idea the policies use).
_PATH_HASH = 2654435761

#: Safety bound on analytic path resolution (matches the dataplane's
#: deflection hop budget in spirit; shortest paths are far shorter).
_MAX_PATH_HOPS = 64


class _LinkState:
    """Controller-side state for one directed link."""

    __slots__ = ("port", "analytic", "pinned", "shares", "active",
                 "analytic_since", "analytic_ns", "last_epoch_bytes",
                 "cascade_noted")

    def __init__(self, port: "Port") -> None:
        self.port = port
        self.analytic = True
        self.pinned = False
        #: Has this link already been counted against the demotion-
        #: cascade envelope?  (One count and one warning per link.)
        self.cascade_noted = False
        #: Registered (adopted, not yet stopped) flows routed over the
        #: link — the fan-in signal the shares demotion trigger reads.
        self.shares = 0
        #: Committed analytic rounds currently in flight across the
        #: link — the concurrency that sets the fair-share bottleneck.
        self.active = 0
        self.analytic_since = 0
        self.analytic_ns = 0
        self.last_epoch_bytes = 0


_Hops = Tuple[Tuple["Link", _LinkState], ...]


class _FlowPath:
    """The resolved path of one adopted flow."""

    __slots__ = ("hops", "generation", "round_path", "receiver")

    def __init__(self, hops: _Hops, generation: int, receiver) -> None:
        #: ``((link, _LinkState), ...)`` from the source NIC to the
        #: destination: each link's controller state is resolved when
        #: the path is, not per hop per round.
        self.hops = hops
        self.generation = generation
        #: The hops claimed by the round in flight (released when the
        #: round completes), or None.  Kept separately from ``hops`` so
        #: a mid-round topology refresh cannot unbalance the counters.
        self.round_path: Optional[_Hops] = None
        #: The flow's receiving endpoint as found at adoption (None for
        #: a sender adopted without one).
        self.receiver = receiver


#: A link whose share count reaches this multiple of ``demote_shares``
#: is in demotion-cascade territory: fan-in far beyond the documented
#: envelope (DESIGN.md "Hybrid fidelity" / benchmarks/test_paper_scale.py),
#: where hybrid mode silently degrades toward all-packet fidelity.
CASCADE_ENVELOPE_FACTOR = 5

#: Promote a quiet link only when its epoch utilization is at or below
#: this (per mille of line rate).
PROMOTE_UTIL_PERMILLE = 400


class FidelityController:
    """Owns per-link modes, flow adoption, and the promotion epoch."""

    def __init__(self, engine: "Engine", network: "Network",
                 config: FidelityConfig) -> None:
        if not config.active:
            raise ValueError("packet mode does not build a controller")
        self.engine = engine
        self.network = network
        self.config = config
        self._hybrid = config.mode == "hybrid"
        self._state: Dict["Link", _LinkState] = {}
        self._flows: Dict[int, _FlowPath] = {}
        self._generation = 0
        self._epoch_handle = None
        #: The ECN marking point DCTCP regulates a queue around: demote
        #: on queue depth at or above it, and charge it as the standing
        #: occupancy of a contended queue.  Resolved from the network
        #: parameters by install(), as is the promotion epoch.
        self.demote_queue_bytes = 0
        self.promote_epoch_ns = 0
        # Aggregate transition/usage counters (all digest-safe integers).
        self.demotions = 0
        self.promotions = 0
        self.pinned = 0
        self.analytic_rounds = 0
        self.analytic_flows = 0
        #: Links seen beyond the demotion-cascade envelope
        #: (``CASCADE_ENVELOPE_FACTOR x demote_shares`` concurrent
        #: shares).  Deliberately *not* part of :meth:`summary` — the
        #: summary is a digest input and this telemetry counter must not
        #: change run identity.
        self.cascade_links = 0
        self._cascade_warned = False

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wire the controller into every link, switch, and queue."""
        network = self.network
        params = network.params
        # The ECN threshold if configured, else a quarter of the buffer.
        self.demote_queue_bytes = (params.ecn_threshold_bytes
                                   or params.buffer_bytes // 4)
        self.promote_epoch_ns = max(1_000_000, 8 * params.base_rtt_ns())
        for key, link in network.links.items():
            port = network.tx_ports[key]
            self._state[link] = _LinkState(port)
            link.fidelity = self
            port.queue.mark_hook = partial(self.on_ecn_mark, link)
        for switch in network.switches.values():
            switch.fidelity = self
        network.fidelity = self
        if self._hybrid:
            self._epoch_handle = self.engine.schedule_every(
                self.promote_epoch_ns, self._on_epoch)

    # -- flow adoption --------------------------------------------------------

    def adopt(self, sender) -> None:
        """Register a starting flow: resolve its path and claim shares."""
        hops = self._resolve_hops(sender)
        if hops is None:
            return
        receiver = self.network.hosts[sender.dst].receivers.get(
            sender.flow_id)
        self._flows[sender.flow_id] = _FlowPath(hops, self._generation,
                                                receiver)
        self._claim_shares(hops)
        sender.fidelity = self

    def _claim_shares(self, hops: _Hops) -> None:
        demote_shares = self.config.demote_shares
        for link, state in hops:
            state.shares += 1
            if state.shares >= demote_shares:
                self._demote(link, "shares")
                self._check_cascade(link, state)

    def flow_stopped(self, sender) -> None:
        """Release the flow's shares (idempotent)."""
        flow = self._flows.pop(sender.flow_id, None)
        if flow is None:
            return
        for _link, state in flow.hops:
            state.shares -= 1
        if flow.round_path is not None:
            for _link, state in flow.round_path:
                state.active -= 1
            flow.round_path = None

    def flow_analytic(self, sender) -> bool:
        """True iff the flow may run its next round analytically."""
        flow = self._flows.get(sender.flow_id)
        if flow is None:
            return False
        if flow.generation != self._generation:
            if not self._refresh_path(sender, flow):
                return False
        for _link, state in flow.hops:
            if not state.analytic:
                return False
        return True

    def _refresh_path(self, sender, flow: _FlowPath) -> bool:
        """Re-resolve a path invalidated by a topology change."""
        hops = self._resolve_hops(sender)
        if hops is None:
            # No surviving route: the flow falls back to packets (where
            # the dataplane turns it into no_route drops and an abort).
            self.flow_stopped(sender)
            sender.fidelity = None
            return False
        if hops != flow.hops:
            for _link, state in flow.hops:
                state.shares -= 1
            self._claim_shares(hops)
            flow.hops = hops
        flow.generation = self._generation
        return True

    def _resolve_hops(self, sender) -> Optional[_Hops]:
        path = self._resolve_path(sender.host.host_id, sender.dst,
                                  sender.flow_id)
        if path is None:
            return None
        state = self._state
        return tuple([(link, state[link]) for link in path])

    def _resolve_path(self, src: int, dst: int,
                      flow_id: int) -> Optional[Tuple["Link", ...]]:
        """Walk the FIBs from src to dst picking one flow-hashed branch."""
        link = self.network.hosts[src].nic.link
        if link is None:
            return None
        path = [link]
        node = link.dst
        hops = 0
        while hasattr(node, "fib"):
            candidates = node.fib.get(dst, ())
            if not candidates:
                return None
            index = (flow_id * _PATH_HASH) % len(candidates)
            link = node.ports[candidates[index]].link
            if link is None:
                return None
            path.append(link)
            node = link.dst
            hops += 1
            if hops > _MAX_PATH_HOPS:
                return None
        return tuple(path)

    # -- analytic round timing ------------------------------------------------

    def analytic_round_ns(self, sender, round_wire_bytes: int,
                          first_wire_bytes: int,
                          pipelined: bool) -> Tuple[int, int]:
        """(round completion, single-packet RTT) latencies, integer ns.

        The RTT term pipelines one full packet across every hop (store
        and forward), drains the queue bytes currently occupying each
        hop, and returns an ACK over the same hops (the reverse channel
        of every cable is rate/delay symmetric); the serialization term
        drains the window's wire bytes at the flow's bottleneck fair
        share ``min(rate // active_rounds)``.

        Fair share divides by the rounds *in flight* on each link (this
        one included), not by registered flows: a flow between rounds
        consumes no capacity, and counting it would starve long flows
        the way an idle reservation would.  The claim is released by
        :meth:`round_finished` when the round's completion event fires.

        The round completion is ``rtt + serialization`` for the first
        round of a contiguous analytic stretch (the pipe starts empty)
        but ``max(rtt, serialization)`` once ``pipelined``: a sliding
        window overlaps successive rounds, so a backlogged flow delivers
        continuously at its share (serialization-limited) and a
        window-limited flow turns one window per RTT — charging the
        pipe-refill RTT on every round would underestimate throughput
        by ~one RTT per window.
        """
        flow = self._flows[sender.flow_id]
        hops = flow.hops
        rtt_ns = 0
        bottleneck_bps = 0
        standing = self.demote_queue_bytes
        # Wire bits of the first packet plus its ACK, times ns per s:
        # the same numerator on every hop.
        echo_bits_e9 = (first_wire_bytes + ACK_WIRE_BYTES) * 8 * 1_000_000_000
        for link, link_state in hops:
            active = link_state.active + 1
            link_state.active = active
            rate = link.rate_bps
            rtt_ns += 2 * link.delay_ns + echo_bits_e9 // rate
            queue_bytes = link_state.port.queue.bytes
            if active > 1:
                # DCTCP-style control holds a contended queue near the
                # marking threshold; charge that standing occupancy on
                # hops where rounds actually overlap.
                queue_bytes += standing
            if queue_bytes:
                rtt_ns += (queue_bytes * 8 * 1_000_000_000) // rate
            share_bps = rate // active
            if bottleneck_bps == 0 or share_bps < bottleneck_bps:
                bottleneck_bps = share_bps
        flow.round_path = hops
        if bottleneck_bps < 1:
            bottleneck_bps = 1
        rest = round_wire_bytes - first_wire_bytes
        serial_ns = (rest * 8 * 1_000_000_000) // bottleneck_bps if rest > 0 \
            else 0
        if pipelined:
            round_ns = serial_ns if serial_ns > rtt_ns else rtt_ns
        else:
            round_ns = rtt_ns + serial_ns
        self.analytic_rounds += 1
        return round_ns, rtt_ns

    def round_finished(self, sender) -> None:
        """Release the bottleneck claim of a completed analytic round."""
        flow = self._flows.get(sender.flow_id)
        if flow is None or flow.round_path is None:
            return
        for _link, state in flow.round_path:
            state.active -= 1
        flow.round_path = None

    def deliver_analytic(self, sender, end: int) -> None:
        """Advance the receiving endpoint past analytically-sent bytes."""
        receiver = self._flows[sender.flow_id].receiver
        if receiver is None or receiver.completed:
            return
        receiver.on_analytic_bytes(end)
        if receiver.completed:
            self.analytic_flows += 1

    # -- demotion triggers (dataplane hooks) ----------------------------------

    def on_enqueue(self, port: "Port") -> None:
        link = port.link
        state = self._state.get(link)
        if (state is not None and state.analytic
                and port.queue.bytes >= self.demote_queue_bytes):
            self._demote(link, "queue")

    def on_deflection(self, from_link: "Link", to_link: "Link") -> None:
        self._demote(from_link, "deflect")
        if to_link is not from_link:
            self._demote(to_link, "deflect")

    def on_ecn_mark(self, link: "Link") -> None:
        self._demote(link, "ecn")

    def on_wire_drop(self, link: "Link") -> None:
        self._demote(link, "drop")

    def on_pause(self, link: "Link") -> None:
        """A PFC PAUSE hit this link's transmitter (repro.net.pfc).

        A paused link demotes to packet fidelity like a faulted one —
        the analytic fair-share model has no notion of a held
        transmitter — but is not pinned: once traffic drains and the
        link goes quiet it can promote back (hybrid mode).
        """
        self._demote(link, "pause")

    def on_fault(self, a: str, b: str) -> None:
        """Pin both directions of a faulted cable to packet mode."""
        links = self.network.links
        for key in ((a, b), (b, a)):
            link = links.get(key)
            if link is None:
                continue
            state = self._state.get(link)
            if state is None:
                continue
            if not state.pinned:
                state.pinned = True
                self.pinned += 1
            self._demote(link, "fault")

    def on_topology_change(self) -> None:
        """Invalidate every adopted flow's cached path."""
        self._generation += 1

    def _check_cascade(self, link: "Link", state: _LinkState) -> None:
        """Count (once per link) fan-in beyond the cascade envelope.

        Incast fan-in past ``CASCADE_ENVELOPE_FACTOR x demote_shares``
        is the documented demotion-cascade regime: hybrid runs quietly
        collapse toward packet fidelity and lose their speedup.  Emit
        one process-level warning per run so paper-scale sweeps can see
        it, and keep a counter (``cascade_links``) outside every digest
        input for reports and manifests.
        """
        envelope = CASCADE_ENVELOPE_FACTOR * self.config.demote_shares
        if state.cascade_noted or state.shares < envelope:
            return
        state.cascade_noted = True
        self.cascade_links += 1
        if not self._cascade_warned:
            self._cascade_warned = True
            warnings.warn(
                f"fidelity demotion cascade: link {link.label} reached "
                f"{state.shares} concurrent shares, beyond the "
                f"~{CASCADE_ENVELOPE_FACTOR}x demote_shares envelope "
                f"({envelope}); hybrid mode is degrading to packet "
                f"fidelity on the incast neighbourhood — raise "
                f"demote_shares or accept packet fidelity for this point "
                f"(DESIGN.md, \"Hybrid fidelity\")",
                RuntimeWarning, stacklevel=2)

    # -- mode transitions -----------------------------------------------------

    def _demote(self, link: "Link", why: str) -> None:
        if not self._hybrid and why not in ("fault", "pause"):
            return  # flow mode: only faults/pauses force packet fidelity
        state = self._state.get(link)
        if state is None or not state.analytic:
            return
        now = self.engine.now
        state.analytic = False
        state.analytic_ns += now - state.analytic_since
        self.demotions += 1
        if _TRACE is not None:
            _TRACE.record(("fid.mode", now, link.label, "packet", why))

    def _promote(self, link: "Link") -> None:
        state = self._state[link]
        state.analytic = True
        state.analytic_since = self.engine.now
        self.promotions += 1
        if _TRACE is not None:
            _TRACE.record(("fid.mode", self.engine.now, link.label, "flow",
                           "quiet"))

    def _on_epoch(self) -> None:
        """Promote every demoted link that stayed quiet this epoch."""
        demote_shares = self.config.demote_shares
        epoch_ns = self.promote_epoch_ns
        for link, state in self._state.items():
            port = state.port
            delta_bytes = port.bytes_sent - state.last_epoch_bytes
            state.last_epoch_bytes = port.bytes_sent
            if state.analytic or state.pinned:
                continue
            if state.shares >= demote_shares:
                continue
            if port.queue.bytes > 0 or port.busy:
                continue
            util_permille = (delta_bytes * 8 * 1000 * 1_000_000_000
                             // (link.rate_bps * epoch_ns))
            if util_permille <= PROMOTE_UTIL_PERMILLE:
                self._promote(link)

    # -- reporting ------------------------------------------------------------

    def link_mode_counts(self) -> Tuple[int, int]:
        """(analytic, packet) directed-link counts right now."""
        n_analytic = 0
        for state in self._state.values():
            if state.analytic:
                n_analytic += 1
        return n_analytic, len(self._state) - n_analytic

    def summary(self, now_ns: int) -> Dict[str, object]:
        """Residency and transition aggregates (all deterministic ints)."""
        total_analytic_ns = 0
        analytic_links = 0
        for state in self._state.values():
            span = state.analytic_ns
            if state.analytic:
                span += now_ns - state.analytic_since
                analytic_links += 1
            total_analytic_ns += span
        n_links = len(self._state)
        denominator = n_links * now_ns
        residency = (total_analytic_ns * 1000 // denominator
                     if denominator > 0 else 1000)
        return {
            "mode": self.config.mode,
            "links": n_links,
            "analytic_links_at_end": analytic_links,
            "analytic_residency_permille": residency,
            "demotions": self.demotions,
            "promotions": self.promotions,
            "pinned_links": self.pinned,
            "analytic_rounds": self.analytic_rounds,
            "analytic_flows_completed": self.analytic_flows,
        }
