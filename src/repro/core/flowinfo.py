"""The ``flowinfo`` auxiliary header (paper §3.1, Figure 3).

Every Vertigo-marked packet carries:

- ``rfs`` (32 bits) — Remaining Flow Size in bytes at the moment the packet
  was first transmitted (for the last packet of a flow, the payload length).
  Under the LAS discipline the same field carries the flow's attained
  service instead.
- ``retcnt`` (4 bits) — how many times the packet was re-transmitted; also
  the number of boosting rotations applied to ``rfs``.
- ``flow_id3`` (3 bits) — disambiguates back-to-back flows between the same
  host pair at the ordering component.
- ``first`` (1 bit) — FLAGS; for SRPT it marks the flow's initial packet.

Boosting (§3.1.2) must be reversible at the receiver without any state, so
it is restricted to bitwise rotations of the 32-bit RFS: a boosting factor
of ``2**k`` applies ``k`` right rotations per re-transmission and the
receiver undoes them with ``retcnt * k`` left rotations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

RFS_BITS = 32
RFS_MASK = (1 << RFS_BITS) - 1
RETCNT_MAX = 15  # 4-bit counter
FLOW_ID3_MASK = 0b111

#: Extra wire bytes of the flowinfo header (layer-3 encapsulation, Fig. 3).
FLOWINFO_WIRE_BYTES = 7

#: Paper default reordering timeout (τ) for the evaluated topologies: the
#: ordering component's default, kept here so that a host stack can name
#: it without loading the component.
DEFAULT_ORDERING_TIMEOUT_NS = 360_000  # 360 us


class MarkingDiscipline(enum.Enum):
    """Which quantity the marking component writes into the RFS field."""

    SRPT = "srpt"  # remaining flow size (needs a-priori flow size)
    LAS = "las"    # attained service / flow aging (no a-priori knowledge)


def rotr32(value: int, count: int) -> int:
    """Rotate a 32-bit value right by ``count`` bits."""
    count %= RFS_BITS
    value &= RFS_MASK
    return ((value >> count) | (value << (RFS_BITS - count))) & RFS_MASK


def rotl32(value: int, count: int) -> int:
    """Rotate a 32-bit value left by ``count`` bits."""
    return rotr32(value, RFS_BITS - (count % RFS_BITS))


def rotations_for_factor(boost_factor: int) -> int:
    """Number of rotations per re-transmission for a power-of-two factor."""
    if boost_factor < 1 or boost_factor & (boost_factor - 1):
        raise ValueError(
            f"boosting factor must be a power of two, got {boost_factor}")
    return boost_factor.bit_length() - 1


def boost_rfs(original_rfs: int, retcnt: int, boost_factor: int = 2) -> int:
    """RFS field value after ``retcnt`` re-transmissions.

    The boost is always applied to the *original* RFS stored in the sender's
    flow table (§3.1.2), not iteratively to the wire value.
    """
    return rotr32(original_rfs, retcnt * rotations_for_factor(boost_factor))


def unboost_rfs(wire_rfs: int, retcnt: int, boost_factor: int = 2) -> int:
    """Invert :func:`boost_rfs` at the receiver (left rotations)."""
    return rotl32(wire_rfs, retcnt * rotations_for_factor(boost_factor))


@dataclass(slots=True)
class FlowInfo:
    """Decoded flowinfo header attached to a packet."""

    rfs: int                 # the on-wire (possibly boosted) RFS field
    retcnt: int = 0
    flow_id3: int = 0
    first: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.rfs <= RFS_MASK:
            raise ValueError(f"RFS out of 32-bit range: {self.rfs}")
        if not 0 <= self.retcnt <= RETCNT_MAX:
            raise ValueError(f"retcnt out of 4-bit range: {self.retcnt}")
        if not 0 <= self.flow_id3 <= FLOW_ID3_MASK:
            raise ValueError(f"flow_id3 out of 3-bit range: {self.flow_id3}")

    def original_rfs(self, boost_factor: int = 2) -> int:
        """The RFS as first marked, undoing any boosting rotations."""
        return unboost_rfs(self.rfs, self.retcnt, boost_factor)
