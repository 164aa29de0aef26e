"""Property-based tests: RFS rotation boosting invariants."""

import pytest
from hypothesis import example, given, strategies as st

from repro.core.flowinfo import (
    RFS_MASK,
    boost_rfs,
    rotl32,
    rotr32,
    unboost_rfs,
)

rfs_values = st.integers(min_value=0, max_value=RFS_MASK)
retcnts = st.integers(min_value=0, max_value=15)
factors = st.sampled_from([1, 2, 4, 8, 16])


@given(rfs_values, retcnts, factors)
def test_boost_roundtrip(original, retcnt, factor):
    wire = boost_rfs(original, retcnt, factor)
    assert unboost_rfs(wire, retcnt, factor) == original


@given(rfs_values, st.integers(min_value=0, max_value=200))
def test_rotations_invert(value, count):
    assert rotl32(rotr32(value, count), count) == value
    assert rotr32(rotl32(value, count), count) == value


@given(rfs_values, st.integers(min_value=0, max_value=200))
def test_rotation_stays_32_bit(value, count):
    assert 0 <= rotr32(value, count) <= RFS_MASK
    assert 0 <= rotl32(value, count) <= RFS_MASK


@given(rfs_values, retcnts)
def test_boost_halves_even_headroom_values(original, retcnt):
    """For values whose low ``retcnt`` bits are clear, boosting by 2^1
    per retransmission is exact integer division — the paper's intent."""
    cleared = original & ~((1 << retcnt) - 1)
    assert boost_rfs(cleared, retcnt, 2) == cleared >> retcnt


@given(rfs_values, retcnts, factors)
def test_boost_composition_matches_total_rotation(original, retcnt, factor):
    import math
    k = int(math.log2(factor))
    assert boost_rfs(original, retcnt, factor) \
        == rotr32(original, retcnt * k)


@st.composite
def sizes_and_seqs(draw):
    size = draw(st.integers(min_value=1, max_value=RFS_MASK))
    return size, draw(st.integers(min_value=0, max_value=size - 1))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: a set bit among the low retcnt*k bits of the rank "
    "wraps into the top of the 32-bit field, so a boosted retransmission "
    "can rank near the worst in every ranked queue; the masked switch "
    "rank is item 2(b)"))
@given(sizes_and_seqs(), st.integers(min_value=1, max_value=15), factors)
@example(size_seq=(199_278, 0), retcnt=2, factor=2)  # -> 2,147,533,467
def test_boost_never_worsens_the_rank(size_seq, retcnt, factor):
    """The wire RFS a ``RankedQueue`` ranks a retransmission on is at most
    its first transmission's SRPT rank (remaining bytes from ``seq``)."""
    size, seq = size_seq
    original = size - seq
    assert boost_rfs(original, retcnt, factor) <= original
