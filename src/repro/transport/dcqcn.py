"""DCQCN-like rate-based congestion control (Zhu et al., SIGCOMM 2015).

The RoCEv2 companion to PFC (:mod:`repro.net.pfc`): instead of a
congestion window, the sender paces packets at an explicit rate and
reacts to ECN feedback —

- **decrease**: an EWMA ``alpha`` tracks the marked fraction of each
  window of ACKed bytes (standing in for the NIC's CNP stream); a window
  containing marks cuts the rate multiplicatively by ``alpha / 2`` and
  snapshots the pre-cut rate as the recovery target.
- **increase**: each period first closes half the gap to the target
  (*fast recovery*), then grows the target additively, then
  hyper-additively.  A tick is never an event: nobody sees it until the
  flow next reads its rate, so every reader first applies the ``(now -
  epoch) // period`` ticks due (at *t*, before what the flow does at *t*).

Everything is integer arithmetic: rates in bits/s, times in ns, and
``alpha`` in fixed point (:data:`ALPHA_UNIT`), so runs stay
digest-deterministic (lint rule VR150's discipline).  The congestion window is
parked at ``MAX_CWND`` and acts only as a safety cap on outstanding
data; the rate is the control variable, enforced through
:meth:`pacing_gap_ns`.  The line rate and the increase period come from
the config (the runner derives both from the network); every other
constant is a class attribute, and the additive and hyper-additive
steps are fixed fractions of the line rate.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis import sanitize as _sanitize
from repro.metrics.collector import MetricsCollector
from repro.net.packet import HEADER_BYTES
from repro.sim.engine import Engine
from repro.transport.base import MAX_CWND, FlowSender, TransportConfig

_SANITIZE = _sanitize.register(__name__)

#: Fixed-point unit for the marked-fraction EWMA ``alpha`` (1.0 == UNIT).
ALPHA_UNIT = 1 << 20


class DcqcnSender(FlowSender):
    """Rate-based ECN-proportional congestion control."""

    __slots__ = ("rate_bps", "target_rate_bps", "alpha_fp", "_timer_ns",
                 "_rate_ai_bps", "_rate_hai_bps", "_stage", "_window_acked",
                 "_window_marked", "_window_end", "_rate_epoch", "_wire_ns",
                 "_gap_ns")

    ecn_capable = True
    #: Floor of the sending rate.
    MIN_RATE_BPS = 1_000_000
    #: Alpha EWMA gain g = 1 / 2**shift (1/16, the paper's g).
    ALPHA_G_SHIFT = 4
    #: Timer periods spent halving the gap to the target before the
    #: additive stage, and again before the hyper-additive one.
    FAST_RECOVERY_STAGES = 5

    def __init__(self, engine: Engine, host, flow_id: int, dst: int,
                 size: int, config: TransportConfig,
                 metrics: MetricsCollector, on_complete=None) -> None:
        super().__init__(engine, host, flow_id, dst, size, config, metrics,
                         on_complete=on_complete)
        line_rate = config.dcqcn_rate_bps
        if line_rate <= 0 or config.dcqcn_timer_ns <= 0:
            raise ValueError("DcqcnSender needs dcqcn_rate_bps and "
                             "dcqcn_timer_ns > 0 (the experiment runner "
                             "derives them)")
        self.cwnd = MAX_CWND
        self.rate_bps = line_rate
        self.target_rate_bps = line_rate
        self.alpha_fp = ALPHA_UNIT  # conservative initial estimate
        self._timer_ns = config.dcqcn_timer_ns
        self._rate_ai_bps = max(1, line_rate // 200)
        self._rate_hai_bps = max(1, line_rate // 20)
        self._stage = 0
        self._window_acked = 0
        self._window_marked = 0
        self._window_end = 0
        self._rate_epoch = engine.now  # when the increase clock restarted
        self._wire_ns = (config.mss + HEADER_BYTES) * 8 * 1_000_000_000
        self._gap_ns = self._wire_ns // line_rate  # kept where the rate moves

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._rate_epoch = self.engine.now
        super().start()

    def stop(self) -> None:
        self._catch_up()
        self._timer_ns = 1 << 62  # stopped: no tick is ever due again
        super().stop()

    # -- rate enforcement ----------------------------------------------------

    def pacing_gap_ns(self) -> int:
        """Serialization time of one full segment at the current rate."""
        if self.engine.now - self._rate_epoch >= self._timer_ns:
            self._catch_up()
        return self._gap_ns

    # -- congestion-control hooks --------------------------------------------

    def on_new_ack_cc(self, acked_bytes: int, rtt_ns: Optional[int],
                      ece: bool) -> None:
        self._window_acked += acked_bytes
        if ece:
            self._window_marked += acked_bytes
        if self.snd_una >= self._window_end:
            self._end_observation_window()

    def _end_observation_window(self) -> None:
        if self._window_acked > 0:
            fraction_fp = (self._window_marked * ALPHA_UNIT
                           // self._window_acked)
            shift = self.ALPHA_G_SHIFT
            self.alpha_fp += (fraction_fp >> shift) - (self.alpha_fp >> shift)
            if self._window_marked > 0:
                self._cut_rate(2 * ALPHA_UNIT - self.alpha_fp)
        self._window_acked = 0
        self._window_marked = 0
        self._window_end = self.snd_nxt

    def _cut_rate(self, keep_fp: int) -> None:
        """Cut to ``keep_fp / 2`` of the rate, which becomes the target."""
        self._catch_up()
        self.target_rate_bps = self.rate_bps
        cut = self.rate_bps * keep_fp // (2 * ALPHA_UNIT)
        self.rate_bps = max(self.MIN_RATE_BPS, cut)
        self._gap_ns = self._wire_ns // self.rate_bps
        self._stage = 0
        self._rate_epoch = self.engine.now

    def _catch_up(self) -> None:
        """Apply every whole tick of the increase clock that is due."""
        ticks = (self.engine.now - self._rate_epoch) // self._timer_ns
        if _SANITIZE:
            _sanitize.check(ticks >= 0, "DCQCN rate epoch is ahead of now")
        for _ in range(ticks):
            if self._stage >= self.FAST_RECOVERY_STAGES:
                if self._stage >= 2 * self.FAST_RECOVERY_STAGES:
                    self.target_rate_bps += self._rate_hai_bps
                else:
                    self.target_rate_bps += self._rate_ai_bps
            self._stage += 1
            self.rate_bps = (self.rate_bps + self.target_rate_bps) // 2
        self._rate_epoch += ticks * self._timer_ns
        self._gap_ns = self._wire_ns // self.rate_bps

    def on_rto_cc(self) -> None:
        # Loss (only possible with PFC off or zero headroom) is treated
        # as the strongest congestion signal: halve and restart recovery.
        self._cut_rate(ALPHA_UNIT)

    def cc_state(self) -> tuple:
        self._catch_up()
        return ("dcqcn", self.rate_bps, self.alpha_fp)
