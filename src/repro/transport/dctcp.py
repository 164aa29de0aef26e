"""DCTCP (Alizadeh et al., SIGCOMM 2010).

Reno-style growth plus ECN-proportional window reduction: switches mark
packets when the instantaneous queue exceeds threshold K; the receiver
echoes marks per ACK; the sender estimates the marked fraction ``alpha``
with an EWMA over each window of data and cuts ``cwnd`` by
``alpha / 2`` once per window in which marks were observed.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.transport.base import TransportConfig
from repro.transport.reno import RenoSender

#: Paper default marking threshold: 65 packets (×MSS bytes at the queue).
DEFAULT_MARKING_THRESHOLD_PKTS = 65
#: DCTCP EWMA gain.
ALPHA_GAIN = 1.0 / 16.0


class DctcpSender(RenoSender):
    """ECN-fraction proportional congestion control."""

    __slots__ = ("alpha", "_window_acked", "_window_marked", "_window_end")

    ecn_capable = True

    def __init__(self, engine: Engine, host, flow_id: int, dst: int,
                 size: int, config: TransportConfig,
                 metrics: MetricsCollector, on_complete=None) -> None:
        super().__init__(engine, host, flow_id, dst, size, config, metrics,
                         on_complete=on_complete)
        self.alpha = 1.0  # conservative initial estimate, per the RFC
        self._window_acked = 0
        self._window_marked = 0
        self._window_end = 0  # snd_una value that closes the observation window

    def on_new_ack_cc(self, acked_bytes: int, rtt_ns: Optional[int],
                      ece: bool) -> None:
        self._window_acked += acked_bytes
        if ece:
            self._window_marked += acked_bytes
        if self.snd_una >= self._window_end:
            self._end_observation_window()
        # Reno-style growth continues beneath the ECN reaction.
        super().on_new_ack_cc(acked_bytes, rtt_ns, ece)

    def _end_observation_window(self) -> None:
        if self._window_acked > 0:
            fraction = self._window_marked / self._window_acked
            self.alpha = ((1 - ALPHA_GAIN) * self.alpha
                          + ALPHA_GAIN * fraction)
            if self._window_marked > 0:
                self.cwnd = max(1.0, self.cwnd * (1 - self.alpha / 2))
                self.ssthresh = max(self.cwnd, self.MIN_SSTHRESH)
        self._window_acked = 0
        self._window_marked = 0
        self._window_end = self.snd_nxt

    def cc_state(self) -> tuple:
        return ("dctcp", self.alpha)


def marking_threshold_bytes(mss: int,
                            packets: int = DEFAULT_MARKING_THRESHOLD_PKTS
                            ) -> int:
    """ECN threshold K in queue bytes for a given MSS."""
    return packets * mss
