"""Unit conversions."""

import pytest

from repro.sim.units import (
    MICROSECOND,
    MILLISECOND,
    SECOND,
    fmt_time,
    gbps,
    kb,
    mbps,
    seconds,
    transmission_delay_ns,
    usecs,
)


def test_time_constants_are_nanoseconds():
    assert SECOND == 1_000_000_000
    assert MILLISECOND == 1_000_000
    assert MICROSECOND == 1_000


def test_seconds_conversion():
    assert seconds(1.5) == 1_500_000_000
    assert seconds(0) == 0


def test_usecs_and_msecs():
    assert usecs(360) == 360_000
    assert usecs(10_000) == 10 * MILLISECOND


def test_rate_helpers():
    assert gbps(10) == 10_000_000_000
    assert mbps(200) == 200_000_000


def test_size_helpers():
    assert kb(300) == 300_000
    assert kb(1.5) == 1_500


def test_transmission_delay_exact():
    # 1500 bytes at 1 Gbps = 12 us exactly.
    assert transmission_delay_ns(1500, 10 ** 9) == 12_000


def test_transmission_delay_rounds_up():
    # 1 byte at 3 bps -> 8/3 s, must round *up* so packets never overlap.
    assert transmission_delay_ns(1, 3) == (8 * SECOND + 2) // 3


def test_transmission_delay_rejects_bad_rate():
    with pytest.raises(ValueError):
        transmission_delay_ns(100, 0)


def test_fmt_time_units():
    assert fmt_time(500) == "500ns"
    assert fmt_time(2_500) == "2.500us"
    assert fmt_time(3_000_000) == "3.000ms"
    assert fmt_time(2 * SECOND).endswith("s")


# -- rounding contract (see the module docstring) ------------------------------


def test_round_half_to_even():
    # Python's round() is banker's rounding: halves go to the even integer.
    assert seconds(0.5e-9) == 0
    assert seconds(1.5e-9) == 2
    assert seconds(2.5e-9) == 2
    assert usecs(0.0005) == 0
    assert usecs(0.0015) == 2


def test_sub_resolution_rounds_to_zero():
    assert seconds(0.4e-9) == 0
    assert usecs(0.0004) == 0


def test_one_nanosecond_is_representable():
    assert seconds(1e-9) == 1
    assert usecs(0.001) == 1


def test_nearest_not_truncation():
    # 0.7 ns must round to 1, not truncate to 0.
    assert seconds(0.7e-9) == 1
    assert seconds(1.4e-9) == 1


def test_large_values_within_float_precision_are_exact():
    # Powers of two stay exact in binary floating point.
    assert seconds(2.0 ** 20) == 2 ** 20 * SECOND
    assert seconds(86_400.0) == 86_400 * SECOND  # one day


def test_integer_arithmetic_avoids_float_precision_loss():
    # Beyond 2**53 ns the float path is lossy; the documented remedy —
    # integer arithmetic with the constants — is exact.
    big_days = 200
    exact = big_days * 86_400 * SECOND
    assert exact > 2 ** 53
    assert exact == big_days * 86_400 * SECOND  # no float involved


def test_transmission_delay_never_underestimates():
    # ceil(bits * 1e9 / rate) >= exact serialization time, for awkward
    # rates that do not divide the bit count evenly.
    for size, rate in [(1, 7), (1461, 999_999_999), (53, 3)]:
        delay = transmission_delay_ns(size, rate)
        assert delay * rate >= size * 8 * SECOND
        assert (delay - 1) * rate < size * 8 * SECOND
