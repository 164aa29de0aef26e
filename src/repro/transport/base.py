"""Shared transport machinery: sliding-window sender and cumulative-ACK
receiver.

The sender implements everything common to the three evaluated congestion
controls — segmenting, window-gated transmission with optional pacing,
timestamp-based RTT estimation (immune to retransmission ambiguity),
duplicate-ACK fast retransmit, and exponential-backoff RTO — and exposes
congestion-control hooks (``on_new_ack_cc`` / ``on_fast_retransmit_cc`` /
``on_rto_cc``) for the subclasses.

There is no handshake: datacenter simulations conventionally pre-establish
connections, and the paper measures data transfer latency only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.metrics.collector import MetricsCollector
from repro.net.packet import (
    HEADER_BYTES,
    MSS,
    Packet,
    PacketKind,
    ack_packet,
    data_packet,
)
from repro.sim.engine import Engine
from repro.sim.timers import Timer
from repro.sim.units import MILLISECOND, SECOND
from repro.trace import hooks as _trace_hooks

_TRACE = _trace_hooks.register(__name__)


#: RTO ceiling, for the estimator and for exponential backoff alike.
MAX_RTO_NS = 8 * SECOND
#: Duplicate ACKs that trigger fast retransmit (RFC 5681).
DUPACK_THRESHOLD = 3
#: Ceiling of the congestion window in packets (DCQCN parks there).
MAX_CWND = 1000.0
#: Give up on a flow after this many consecutive RTOs (TCP's R2
#: threshold).  With exponential backoff this is far beyond any
#: simulated window; it exists so an unreachable peer cannot generate
#: events forever.
MAX_CONSECUTIVE_RTOS = 20
#: How long a delayed-ACK receiver holds a lone segment.
DELAYED_ACK_TIMEOUT_NS = 500_000
#: Initial congestion window in packets (paper §4.1: TCP's 10).
INIT_CWND = 10.0


@dataclass(frozen=True)
class TransportConfig:
    """Transport parameters (paper §4.1 defaults).

    Only what some caller sets is a field; every other transport
    constant lives next to the code that uses it (above, or as a class
    attribute of its sender).
    """

    init_rto_ns: int = 1 * SECOND    # paper: initial RTO 1 s
    min_rto_ns: int = 10 * MILLISECOND  # paper: minRTO 10 ms
    fast_retransmit: bool = True     # DIBS disables this (paper §2)
    #: Delayed ACKs: acknowledge every second segment, or after
    #: :data:`DELAYED_ACK_TIMEOUT_NS` — off by default (per-packet ACKs,
    #: the common datacenter-simulation setting).
    delayed_ack: bool = False
    # Topology-derived inputs.  Non-positive means "auto": the experiment
    # runner fills them from the network parameters
    # (repro.experiments.runner.resolve_transport_config, the one home
    # of that rule); a sender built without the runner needs them set.
    swift_target_delay_ns: int = 0   # Swift's folded base-plus-scaling target
    dcqcn_rate_bps: int = 0          # DCQCN line (= initial) rate
    dcqcn_timer_ns: int = 0          # DCQCN rate-increase period


class FlowSender:
    """Window-based reliable sender for a single one-way flow.

    Slotted, like every per-flow class: a subclass declares the slots of
    its own attributes (one that forgets grows a ``__dict__`` back), and
    per-transport constants stay class attributes.  ``on_complete`` is
    called with the sender itself, so every flow can share one callback.
    """

    __slots__ = ("engine", "host", "flow_id", "dst", "size", "config",
                 "metrics", "on_complete", "snd_una", "snd_nxt", "cwnd",
                 "ssthresh", "dupacks", "in_recovery", "recover_point",
                 "completed", "failed", "_rto_streak", "srtt_ns",
                 "rttvar_ns", "rto_ns", "backoff", "_segments", "_head_tx",
                 "_last_tx_ns", "_rto_timer", "_pace_timer", "_nic_blocked",
                 "_rtx_parked", "fidelity", "_analytic_round",
                 "_analytic_pipelined")

    #: Floor of the congestion window in packets (Swift's is sub-packet).
    min_cwnd = 1.0
    #: Whether data packets ask switches for ECN marks; a property of
    #: the congestion control, not of the run.
    ecn_capable = False
    #: Whether the class overrides :meth:`pacing_gap_ns` (set per class).
    paced = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.paced = cls.pacing_gap_ns is not FlowSender.pacing_gap_ns

    def __init__(self, engine: Engine, host, flow_id: int, dst: int,
                 size: int, config: TransportConfig,
                 metrics: MetricsCollector,
                 on_complete: Optional[Callable[["FlowSender"], None]] = None
                 ) -> None:
        if size <= 0:
            raise ValueError("flow size must be positive")
        self.engine = engine
        self.host = host
        self.flow_id = flow_id
        self.dst = dst
        self.size = size
        self.config = config
        self.metrics = metrics
        self.on_complete = on_complete

        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = INIT_CWND
        self.ssthresh = float("inf")
        self.dupacks = 0
        self.in_recovery = False
        self.recover_point = 0
        self.completed = False
        self.failed = False
        self._rto_streak = 0

        self.srtt_ns: Optional[int] = None
        self.rttvar_ns = 0
        self.rto_ns = config.init_rto_ns
        self.backoff = 1

        #: seq -> payload of every outstanding (sent, not yet cumulatively
        #: acknowledged) segment.  Only the head is ever retransmitted, so
        #: one count, reset as the head moves, is every segment's
        #: transmission count: ``_head_tx`` for the head, 1 for the rest.
        self._segments: Dict[int, int] = {}
        self._head_tx = 1
        self._last_tx_ns = -(10 ** 18)
        #: Built on first arm.  A flow that only ever runs analytic
        #: rounds transmits nothing and needs neither; holding no bound
        #: method of itself, it is freed the moment it is done instead
        #: of waiting for the cycle collector.
        self._rto_timer: Optional[Timer] = None
        self._pace_timer: Optional[Timer] = None
        #: Lossless-edge hook (repro.host): bound ``Host.nic_blocked`` if
        #: the host parks senders (switched on before any flow opens),
        #: else None: without backpressure it always answers False.
        self._nic_blocked = host.nic_blocked \
            if getattr(host, "nic_backpressure", False) else None
        #: True when a head retransmission is waiting out NIC
        #: backpressure (lossless edge, repro.host).
        self._rtx_parked = False

        #: Fidelity controller adopting this flow, or None (pure packet
        #: mode).  Set by the controller, cleared when the flow stops.
        self.fidelity = None
        #: End sequence of the analytic round in flight, or None.
        self._analytic_round: Optional[int] = None
        #: True once at least one analytic round completed with no real
        #: transmission since: the sliding window is "warm", so the next
        #: round overlaps the previous one instead of refilling the pipe.
        self._analytic_pipelined = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self._maybe_send()

    def stop(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.stop()
        if self._pace_timer is not None:
            self._pace_timer.stop()
        if self.fidelity is not None:
            self.fidelity.flow_stopped(self)
            self.fidelity = None

    # -- congestion-control hooks (overridden by subclasses) ----------------------

    def on_new_ack_cc(self, acked_bytes: int, rtt_ns: Optional[int],
                      ece: bool) -> None:
        """Called on every window-advancing ACK."""

    def on_fast_retransmit_cc(self) -> None:
        """Called when the dupack threshold triggers fast retransmit."""

    def on_rto_cc(self) -> None:
        """Called on a retransmission timeout."""

    def pacing_gap_ns(self) -> int:
        """Minimum spacing between transmissions (0 = pure windowing)."""
        return 0

    def cc_state(self) -> tuple:
        """JSON-safe per-transport detail for the flow sampler.

        Subclasses return a flat tuple of their distinguishing state
        (e.g. DCTCP's alpha) as it stands — the trace exporter rounds
        floats to six decimals — with one type per position, so that
        equal tuples export alike (the sampler lets the flows of a tick
        share them); the base sender has none.
        """
        return ()

    # -- transmission --------------------------------------------------------------

    def _window_packets(self) -> int:
        return max(1, math.floor(self.cwnd))

    def _clamp_cwnd(self) -> None:
        self.cwnd = min(max(self.cwnd, self.min_cwnd), MAX_CWND)

    def _maybe_send(self) -> None:
        if self.completed or self.failed:
            return
        if (self.fidelity is not None and self._analytic_round is None
                and not self._segments and self.snd_nxt < self.size
                and self.fidelity.flow_analytic(self)):
            # Round boundary with nothing outstanding and a fully
            # analytic path: collapse the next window into one event.
            self._start_analytic_round()
            return
        # Nothing below moves cwnd, so the window is read once.
        window = self._window_packets()
        segments = self._segments
        while self.snd_nxt < self.size and len(segments) < window:
            if self.paced:
                gap = self.pacing_gap_ns()
                wait = self._last_tx_ns + gap - self.engine.now
                if gap > 0 and wait > 0:
                    if self._pace_timer is None:
                        self._pace_timer = Timer(self.engine,
                                                 self._maybe_send)
                    self._pace_timer.start(wait)
                    return
            payload = min(MSS, self.size - self.snd_nxt)
            if self._nic_blocked is not None \
                    and self._nic_blocked(self, payload + HEADER_BYTES):
                return  # parked: the host wakes us when the NIC drains
            self._transmit(self.snd_nxt, payload, tx_count=1)
            self.snd_nxt += payload

    def _transmit(self, seq: int, payload: int, tx_count: int) -> None:
        # Any real transmission breaks the analytic stretch: the next
        # analytic round starts from an empty pipe again.
        self._analytic_pipelined = False
        now = self.engine.now
        packet = data_packet(self.host.host_id, self.dst, self.flow_id, seq,
                             payload, self.ecn_capable, now, tx_count)
        self._last_tx_ns = now
        if tx_count == 1:
            self._segments[seq] = payload
        else:
            self._head_tx = tx_count
            self.metrics.counters.retransmissions += 1
            record = self.metrics.flows.get(self.flow_id)
            if record is not None:
                record.retransmissions += 1
            if _TRACE is not None:
                _TRACE.record(("flow.rtx", now, self.flow_id, seq, tx_count))
        self.host.send_packet(packet)
        timer = self._rto_timer
        if timer is None:
            timer = self._rto_timer = Timer(self.engine, self._on_rto)
        if not timer.armed:
            timer.start(self.rto_ns)

    def nic_unblocked(self) -> None:
        """Edge backpressure released: the host NIC drained (repro.host)."""
        if self._rtx_parked:
            self._rtx_parked = False
            self._retransmit_head()
        self._maybe_send()

    def _retransmit_head(self) -> None:
        payload = self._segments.get(self.snd_una)
        if payload is None:
            # Head segment unknown (e.g. all data acked meanwhile).
            return
        if self._nic_blocked is not None \
                and self._nic_blocked(self, payload + HEADER_BYTES):
            self._rtx_parked = True
            return
        self._transmit(self.snd_una, payload, self._head_tx + 1)

    # -- analytic fast path (hybrid fidelity) -------------------------------------

    def _start_analytic_round(self) -> None:
        """Collapse the next congestion window into one completion event.

        Only reachable at a round boundary (no outstanding segments), so
        there is no in-flight state to convert.  The round is committed:
        it always runs to completion even if a path link demotes
        meanwhile, exactly like packets already on the wire; the flow
        re-evaluates its mode at the next boundary.  Integer ns only —
        checked by lint rule VR150.
        """
        fidelity = self.fidelity
        start = self.snd_nxt
        round_bytes = min(self._window_packets() * MSS, self.size - start)
        n_packets = (round_bytes + MSS - 1) // MSS
        round_wire = round_bytes + n_packets * HEADER_BYTES
        first_wire = min(MSS, round_bytes) + HEADER_BYTES
        round_ns, rtt_ns = fidelity.analytic_round_ns(
            self, round_wire, first_wire, self._analytic_pipelined)
        gap_ns = self.pacing_gap_ns() if self.paced else 0
        if gap_ns > 0 and round_ns < n_packets * gap_ns:
            round_ns = n_packets * gap_ns
        end = start + round_bytes
        self.snd_nxt = end
        self._last_tx_ns = self.engine.now
        self._analytic_round = end
        if self._rto_timer is not None:
            self._rto_timer.stop()
        self.engine.schedule_fast(round_ns, self._finish_analytic_round,
                                  end, rtt_ns)

    def _finish_analytic_round(self, end: int, rtt_ns: int) -> None:
        """Deliver one analytic round: ACK clock, receiver bytes, CC."""
        self._analytic_round = None
        self._analytic_pipelined = True
        if self.fidelity is not None:
            self.fidelity.round_finished(self)
        if self.completed or self.failed:
            return
        if end <= self.snd_una:  # stale (straggler ACK advanced us further)
            self._maybe_send()
            return
        self._advance(end, rtt_ns, False)
        fidelity = self.fidelity
        if fidelity is not None:
            fidelity.deliver_analytic(self, end)
        if self.snd_una >= self.size:
            self._finish()
            return
        self._maybe_send()

    # -- ACK processing ----------------------------------------------------------

    def on_ack(self, packet: Packet) -> None:
        if self.completed or self.failed:
            return
        if self._analytic_round is not None:
            # A straggler duplicate of an earlier packet round can raise
            # an ACK mid-analytic-round; the round completion event is
            # the single source of window advancement while it is armed.
            return
        ack_no = packet.ack_no
        if ack_no > self.snd_una:
            ts_echo = packet.ts_echo
            self._advance(ack_no, self.engine.now - ts_echo
                          if ts_echo >= 0 else None, packet.ece)
            if self.snd_una >= self.size:
                self._finish()
                return
            if self._segments:
                self._rto_timer.start(self.rto_ns)
            elif self._rto_timer is not None:
                self._rto_timer.stop()
        elif ack_no == self.snd_una and self._segments:
            self._on_dupack()
        self._maybe_send()

    def _advance(self, ack_no: int, rtt_ns: Optional[int],
                 ece: bool) -> None:
        """Advance the window to ``ack_no``: what every window-advancing
        acknowledgement does, a packet ACK or an analytic round's end
        (which has no segments, no recovery and never an ECN echo)."""
        acked = ack_no - self.snd_una
        self.snd_una = ack_no
        self._rto_streak = 0
        # Segments enter in ascending seq order (snd_nxt only grows, a
        # retransmission updates its entry in place), so the ones a
        # cumulative ACK covers are a prefix of the dict.
        segments = self._segments
        while segments:
            seq = next(iter(segments))
            if seq + segments[seq] > ack_no:
                break
            del segments[seq]
            self._head_tx = 1  # a new head: sent once so far
        self.dupacks = 0
        self.backoff = 1

        if rtt_ns is not None:
            # RFC 6298 estimator, integer ns.
            srtt = self.srtt_ns
            if srtt is None:
                srtt = rtt_ns
                self.rttvar_ns = rtt_ns // 2
            else:
                self.rttvar_ns = (3 * self.rttvar_ns
                                  + abs(rtt_ns - srtt)) // 4
                srtt = (7 * srtt + rtt_ns) // 8
            self.srtt_ns = srtt
            base = srtt + max(4 * self.rttvar_ns, 1000)
            self.rto_ns = min(max(base, self.config.min_rto_ns), MAX_RTO_NS)

        if self.in_recovery:
            if ack_no >= self.recover_point:
                self.in_recovery = False
            else:
                # NewReno partial ACK (RFC 6582): the next hole is lost
                # too — retransmit it now rather than stalling to an RTO.
                self._retransmit_head()

        self.on_new_ack_cc(acked, rtt_ns, ece)
        self._clamp_cwnd()

    def _finish(self) -> None:  # every byte is acknowledged
        self.completed = True
        self.stop()
        if self.on_complete is not None:
            self.on_complete(self)

    def _on_dupack(self) -> None:
        self.dupacks += 1
        if (self.config.fast_retransmit and not self.in_recovery
                and self.dupacks >= DUPACK_THRESHOLD):
            self.in_recovery = True
            self.recover_point = self.snd_nxt
            if _TRACE is not None:
                _TRACE.record(("cc.fastrtx", self.engine.now, self.flow_id))
            self.on_fast_retransmit_cc()
            self._clamp_cwnd()
            self._retransmit_head()

    # -- RTO ----------------------------------------------------------------------

    def _on_rto(self) -> None:
        if self.completed or self.failed or not self._segments:
            return
        self._rto_streak += 1
        if self._rto_streak > MAX_CONSECUTIVE_RTOS:
            # Unreachable peer: abort like TCP past its R2 threshold.
            self.failed = True
            self.metrics.counters.aborted_flows += 1
            self.stop()
            return
        self.dupacks = 0
        self.in_recovery = False
        if _TRACE is not None:
            _TRACE.record(("cc.rto", self.engine.now, self.flow_id,
                           self.rto_ns))
        self.on_rto_cc()
        self._clamp_cwnd()
        self.backoff = min(self.backoff * 2, 64)
        self._retransmit_head()
        delay = min(self.rto_ns * self.backoff, MAX_RTO_NS)
        self._rto_timer.start(delay)


class FlowReceiver:
    """Cumulative-ACK receiver; completion fires when every byte arrived.

    ``on_complete`` is called once, with the receiver itself.  The host
    keeps a finished receiver (straggler duplicates are still counted
    and acknowledged), so it holds only what it can still use: the ACK
    timer exists only under delayed ACKs, the out-of-order buffer from
    the first gap until completion, the callback until it fires.
    """

    __slots__ = ("engine", "host", "flow_id", "peer", "size", "metrics",
                 "_record", "on_complete", "config", "rcv_nxt", "completed",
                 "_max_seq_seen", "_ooo", "_held_segments", "_held_ece",
                 "_held_ts_echo", "_ack_timer", "acks_sent")

    def __init__(self, engine: Engine, host, flow_id: int, peer: int,
                 size: int, metrics: MetricsCollector,
                 on_complete: Optional[Callable[["FlowReceiver"], None]]
                 = None,
                 config: Optional[TransportConfig] = None) -> None:
        self.engine = engine
        self.host = host
        self.flow_id = flow_id
        self.peer = peer
        self.size = size
        self.metrics = metrics
        #: None for a flow the collector does not know; records outlive us.
        self._record = metrics.flows.get(flow_id)
        self.on_complete = on_complete
        self.config = config or TransportConfig()
        self.rcv_nxt = 0
        self.completed = False
        self._max_seq_seen = -1
        #: seq -> end_seq of buffered segments; None while (and once)
        #: nothing can be out of order.
        self._ooo: Optional[Dict[int, int]] = None
        # Delayed-ACK state.
        self._held_segments = 0
        self._held_ece = False
        self._held_ts_echo = -1
        self._ack_timer = Timer(engine, self._flush_ack) \
            if self.config.delayed_ack else None
        self.acks_sent = 0

    def on_data(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.DATA:
            raise ValueError("FlowReceiver.on_data got a non-data packet")
        seq = packet.seq
        end = seq + packet.payload
        if seq < self._max_seq_seen:
            self.metrics.counters.reordered_arrivals += 1
        else:
            self._max_seq_seen = seq

        rcv_nxt = self.rcv_nxt
        in_order = seq <= rcv_nxt < end
        if end > rcv_nxt:
            ooo = self._ooo
            if seq > rcv_nxt:
                if ooo is None:
                    ooo = self._ooo = {}
                ooo[seq] = max(ooo.get(seq, 0), end)
            else:
                rcv_nxt = end
            if ooo:
                # Drain the now-contiguous buffered segments.  Keys
                # ascend and rcv_nxt only grows, so one sorted pass
                # meets them in the order repeated minimum-pops would.
                for held in sorted(ooo):
                    if held > rcv_nxt:
                        break
                    held_end = ooo.pop(held)
                    if held_end > rcv_nxt:
                        rcv_nxt = held_end
            self.rcv_nxt = rcv_nxt

        record = self._record
        if record is not None and record.end_ns is None:
            record.bytes_delivered = min(rcv_nxt, self.size)

        done = rcv_nxt >= self.size
        if self._ack_timer is None:  # per-packet ACKs
            ack = ack_packet(self.host.host_id, self.peer, self.flow_id,
                             rcv_nxt, ece=packet.ecn_ce,
                             ts_echo=packet.sent_at)
            self.acks_sent += 1
            self.host.send_packet(ack)
        else:
            self._delayed_ack(packet, in_order, done)
        if done and not self.completed:
            self._complete()

    def on_analytic_bytes(self, end: int) -> None:
        """Advance past bytes delivered by an analytic round (no ACK:
        the sender's round-completion event is its own ACK clock)."""
        if self.completed:
            return
        if end > self.rcv_nxt:
            self.rcv_nxt = end
        record = self._record
        if record is not None and record.end_ns is None:
            record.bytes_delivered = min(self.rcv_nxt, self.size)
        if self.rcv_nxt >= self.size:
            self._complete()

    def _complete(self) -> None:
        """Every byte arrived: record it, fire the callback once, and
        let go of both it and the out-of-order buffer (past ``size`` no
        segment can be out of order)."""
        self.completed = True
        self._ooo = None
        self.metrics.flow_completed(self.flow_id, self.engine.now)
        on_complete = self.on_complete
        if on_complete is not None:
            self.on_complete = None
            on_complete(self)

    def _delayed_ack(self, data: Packet, in_order: bool, done: bool) -> None:
        """Delayed ACKs, with the DCTCP-style rule that a change in the
        CE marking flushes immediately."""
        ce_changed = (self._held_segments > 0
                      and data.ecn_ce != self._held_ece)
        if ce_changed:
            # Acknowledge the held run with its own ECE value first.
            self._flush_ack()
        if not in_order or done or self._ooo:
            # Duplicates, gaps, gap-fills, and flow completion always
            # acknowledge immediately (dupacks drive fast retransmit).
            self._held_ece = self._held_ece or data.ecn_ce
            self._held_ts_echo = data.sent_at
            self._held_segments += 1
            self._flush_ack()
            return
        self._held_ece = self._held_ece or data.ecn_ce
        self._held_ts_echo = data.sent_at
        self._held_segments += 1
        if self._held_segments >= 2:
            self._flush_ack()
        elif not self._ack_timer.armed:
            self._ack_timer.start(DELAYED_ACK_TIMEOUT_NS)

    def _flush_ack(self) -> None:
        """Acknowledge the held run (delayed ACKs only)."""
        if self._held_segments == 0:
            return
        ack = ack_packet(self.host.host_id, self.peer, self.flow_id,
                         self.rcv_nxt, ece=self._held_ece,
                         ts_echo=self._held_ts_echo)
        self.acks_sent += 1
        self.host.send_packet(ack)
        self._held_segments = 0
        self._held_ece = False
        self._held_ts_echo = -1
        self._ack_timer.stop()
