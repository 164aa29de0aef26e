"""TCP Reno congestion control (RFC 5681 behaviour, simplified).

Slow start to ``ssthresh``, congestion avoidance (+1 MSS per RTT), fast
retransmit/recovery on three duplicate ACKs (window halved), and a full
collapse to one segment on RTO.
"""

from __future__ import annotations

from typing import Optional

from repro.transport.base import FlowSender


class RenoSender(FlowSender):
    """Classic loss-based AIMD."""

    __slots__ = ()

    MIN_SSTHRESH = 2.0

    def on_new_ack_cc(self, acked_bytes: int, rtt_ns: Optional[int],
                      ece: bool) -> None:
        acked_packets = max(1, acked_bytes // self.config.mss)
        if self.cwnd < self.ssthresh:
            self.cwnd += acked_packets  # slow start: +1 per ACKed packet
        else:
            self.cwnd += acked_packets / self.cwnd  # CA: +1 per RTT

    def on_fast_retransmit_cc(self) -> None:
        self.ssthresh = max(self.cwnd / 2, self.MIN_SSTHRESH)
        self.cwnd = self.ssthresh

    def on_rto_cc(self) -> None:
        self.ssthresh = max(self.cwnd / 2, self.MIN_SSTHRESH)
        self.cwnd = 1.0

    def cc_state(self) -> tuple:
        # An unset ssthresh is infinite, which JSON cannot carry.
        return ("reno", None if self.ssthresh == float("inf")
                else self.ssthresh)
