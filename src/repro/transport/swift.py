"""Swift (Kumar et al., SIGCOMM 2020): delay-based congestion control.

Swift compares each precisely-measured RTT against a target delay.  Below
target it increases additively; above target it decreases
multiplicatively, proportionally to the excess delay and at most once per
RTT.  Its distinguishing capability for extreme incast is letting the
congestion window fall *below one packet*: ``cwnd = 0.5`` sends one packet
every two RTTs via pacing, so thousands of synchronized senders can share
one downlink without loss (paper §4.2).  An RTO collapses the window to
``min_cwnd``.  The gains are Swift's published constants, class
attributes here; only the target delay varies with the network.

Simulation timestamps are exact, which matches Swift's reliance on NIC
hardware timestamps.  The single fixed ``target_delay`` stands in for
Swift's base-plus-scaling target; topology-dependent scaling terms are
folded into the configured value by the experiment runner.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.transport.base import FlowSender, TransportConfig


class SwiftSender(FlowSender):
    """Target-delay AIMD with sub-packet windows and pacing."""

    __slots__ = ("_consecutive_rtos", "target_delay_ns",
                 "_last_decrease_ns")

    min_cwnd = 0.01
    #: Additive increase per RTT, in packets.
    AI = 1.0
    #: Multiplicative-decrease gain on the delay excess.
    BETA = 0.8
    #: Largest fraction of the window one decision may remove.
    MAX_MDF = 0.5
    #: Consecutive timeouts before collapsing to min_cwnd
    #: (Swift's RETX_RESET_THRESHOLD).
    RETX_RESET_THRESHOLD = 5

    def __init__(self, engine: Engine, host, flow_id: int, dst: int,
                 size: int, config: TransportConfig,
                 metrics: MetricsCollector, on_complete=None) -> None:
        super().__init__(engine, host, flow_id, dst, size, config, metrics,
                         on_complete=on_complete)
        if config.swift_target_delay_ns <= 0:
            raise ValueError("SwiftSender needs swift_target_delay_ns > 0 "
                             "(the experiment runner derives it)")
        self._consecutive_rtos = 0
        self.target_delay_ns = config.swift_target_delay_ns
        self._last_decrease_ns = -(10 ** 18)

    # -- pacing -------------------------------------------------------------------

    def pacing_gap_ns(self) -> int:
        if self.cwnd >= 1.0:
            return 0
        rtt = self.srtt_ns if self.srtt_ns is not None \
            else self.target_delay_ns
        return int(rtt / self.cwnd)

    def _window_packets(self) -> int:
        # Below one packet the window admits a single packet and pacing
        # enforces the sub-unit rate.
        return max(1, int(self.cwnd))

    # -- congestion control ---------------------------------------------------------

    def _can_decrease(self) -> bool:
        rtt = self.srtt_ns or self.target_delay_ns
        return self.engine.now - self._last_decrease_ns >= rtt

    def on_new_ack_cc(self, acked_bytes: int, rtt_ns: Optional[int],
                      ece: bool) -> None:
        self._consecutive_rtos = 0
        if rtt_ns is None:
            return
        target = self.target_delay_ns
        if rtt_ns < target:
            acked_packets = max(1, acked_bytes // self.config.mss)
            if self.cwnd >= 1.0:
                self.cwnd += self.AI * acked_packets / self.cwnd
            else:
                self.cwnd += self.AI * acked_packets * self.cwnd
        elif self._can_decrease():
            # Dimensionless delay-excess ratio (Swift's multiplicative
            # decrease operates on fractions of the measured RTT).
            excess = (rtt_ns - target) / rtt_ns  # noqa: VR003
            factor = max(1 - self.BETA * excess, 1 - self.MAX_MDF)
            self.cwnd = max(self.cwnd * factor, self.min_cwnd)
            self._last_decrease_ns = self.engine.now

    def on_fast_retransmit_cc(self) -> None:
        if self._can_decrease():
            self.cwnd = max(self.cwnd * (1 - self.MAX_MDF), self.min_cwnd)
            self._last_decrease_ns = self.engine.now

    def on_rto_cc(self) -> None:
        self._consecutive_rtos += 1
        if self._consecutive_rtos >= self.RETX_RESET_THRESHOLD:
            self.cwnd = self.min_cwnd
        else:
            self.cwnd = max(self.cwnd * (1 - self.MAX_MDF), self.min_cwnd)
        self._last_decrease_ns = self.engine.now

    def cc_state(self) -> tuple:
        return ("swift", self.target_delay_ns)
