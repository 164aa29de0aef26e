"""Transport protocols evaluated in the paper.

Vertigo is an L2/L3 service deployed *below* a transport (§3); the paper
evaluates it under three congestion control algorithms, all implemented
here on a shared sliding-window engine (:mod:`repro.transport.base`):

- :class:`~repro.transport.reno.RenoSender` — TCP Reno: slow start, AIMD,
  fast retransmit/recovery, exponential-backoff RTO.
- :class:`~repro.transport.dctcp.DctcpSender` — DCTCP: ECN-fraction
  estimation (alpha) with proportional window reduction.
- :class:`~repro.transport.swift.SwiftSender` — Swift: delay-target AIMD
  with accurate timestamp RTTs, pacing, and cwnd below one packet.
- :class:`~repro.transport.dcqcn.DcqcnSender` — DCQCN-like rate-based
  control, the RoCEv2 companion to PFC (lossless-fabric extension).
"""

from repro.transport.base import FlowReceiver, FlowSender, TransportConfig
from repro.transport.reno import RenoSender
from repro.transport.dctcp import DctcpSender
from repro.transport.dcqcn import DcqcnSender
from repro.transport.swift import SwiftSender

TRANSPORTS = {
    "reno": RenoSender,
    "dctcp": DctcpSender,
    "swift": SwiftSender,
    "dcqcn": DcqcnSender,
}

__all__ = [
    "FlowReceiver",
    "FlowSender",
    "TransportConfig",
    "RenoSender",
    "DctcpSender",
    "DcqcnSender",
    "SwiftSender",
    "TRANSPORTS",
]
