"""Vertigo: the paper's primary contribution.

This package implements the three components of Vertigo (CoNEXT 2021):

- :mod:`repro.core.flowinfo` — the ``flowinfo`` auxiliary header carried by
  every packet (RFS, retcnt, flow-id, first-packet flag) and the reversible
  rotation-based re-transmission *boosting* arithmetic.
- :mod:`repro.core.marking` — the TX-path marking component (SRPT and LAS
  disciplines, cuckoo-filter duplicate detection, boosting).
- :mod:`repro.core.ordering` — the transport-independent RX-path ordering
  component (Init / In-order / Out-of-order state machine with the
  reordering timeout).
- :mod:`repro.core.scheduler` — the PIEO-style rank queue (min-dequeue +
  tail extract): the reference that the sanitizer and tests hold a switch
  port's inline sorted array (:class:`repro.net.queues.RankedQueue`) to.
- :mod:`repro.core.cuckoo` — a cuckoo filter, used by the marking and
  ordering components for fast duplicate detection.

The in-network selective-deflection logic lives in
:mod:`repro.forwarding.vertigo` so it sits beside the ECMP / DRILL / DIBS
baselines it is evaluated against.
"""

from repro.core.cuckoo import CuckooFilter
from repro.core.flowinfo import (
    FlowInfo,
    MarkingDiscipline,
    boost_rfs,
    rotl32,
    rotr32,
    unboost_rfs,
)
from repro.core.marking import MarkingComponent
from repro.core.ordering import OrderingComponent
from repro.core.scheduler import RankQueue
from repro.core.wire import (
    decode_ipv4_option,
    decode_l3,
    encode_ipv4_option,
    encode_l3,
)

__all__ = [
    "CuckooFilter",
    "FlowInfo",
    "MarkingDiscipline",
    "MarkingComponent",
    "OrderingComponent",
    "RankQueue",
    "boost_rfs",
    "rotl32",
    "rotr32",
    "unboost_rfs",
    "encode_l3",
    "decode_l3",
    "encode_ipv4_option",
    "decode_ipv4_option",
]
