"""flowinfo header: RFS rotation boosting (paper §3.1.2)."""

import pytest

from repro.core.flowinfo import (
    RFS_MASK,
    FlowInfo,
    boost_rfs,
    rotations_for_factor,
    rotl32,
    rotr32,
    unboost_rfs,
)


def test_rotr_halves_even_values():
    assert rotr32(20_000, 1) == 10_000
    assert rotr32(40_000, 2) == 10_000


def test_rotr_wraps_odd_values_to_high_bit():
    assert rotr32(1, 1) == 1 << 31


def test_rotl_inverts_rotr():
    for value in (0, 1, 2, 12345, RFS_MASK, 0xDEADBEEF):
        for count in range(0, 40):
            assert rotl32(rotr32(value, count), count) == value & RFS_MASK


def test_rotation_counts_mod_32():
    assert rotr32(0xABCD1234, 32) == 0xABCD1234
    assert rotr32(0xABCD1234, 33) == rotr32(0xABCD1234, 1)


def test_rotations_for_factor():
    assert rotations_for_factor(1) == 0
    assert rotations_for_factor(2) == 1
    assert rotations_for_factor(4) == 2
    assert rotations_for_factor(8) == 3


def test_rotations_for_factor_rejects_non_power():
    with pytest.raises(ValueError):
        rotations_for_factor(3)
    with pytest.raises(ValueError):
        rotations_for_factor(0)


def test_boost_divides_by_factor_per_retransmission():
    # 2x boosting: each retransmission halves the (even) RFS.
    assert boost_rfs(40_000, retcnt=1, boost_factor=2) == 20_000
    assert boost_rfs(40_000, retcnt=2, boost_factor=2) == 10_000
    # 4x boosting: each retransmission quarters it.
    assert boost_rfs(40_000, retcnt=1, boost_factor=4) == 10_000


def test_boost_applies_to_original_not_iteratively():
    original = 48_000
    once = boost_rfs(original, 1)
    twice = boost_rfs(original, 2)
    assert twice == boost_rfs(once, 1)  # equal here, but computed from orig


def test_unboost_recovers_original():
    for original in (7, 1460, 40_000, 999_999, RFS_MASK):
        for retcnt in range(0, 16):
            for factor in (2, 4, 8):
                wire = boost_rfs(original, retcnt, factor)
                assert unboost_rfs(wire, retcnt, factor) == original


def test_flowinfo_validates_field_ranges():
    FlowInfo(rfs=0)
    FlowInfo(rfs=RFS_MASK, retcnt=15, flow_id3=7, first=True)
    with pytest.raises(ValueError):
        FlowInfo(rfs=RFS_MASK + 1)
    with pytest.raises(ValueError):
        FlowInfo(rfs=0, retcnt=16)
    with pytest.raises(ValueError):
        FlowInfo(rfs=0, flow_id3=8)


def test_flowinfo_original_rfs():
    info = FlowInfo(rfs=boost_rfs(30_000, 3), retcnt=3)
    assert info.original_rfs() == 30_000
