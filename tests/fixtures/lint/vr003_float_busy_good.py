"""VR003 good: scale to bit-nanoseconds, then floor-divide."""


def sample(delta_bytes, rate_bps, interval_ns):
    busy_ns = delta_bytes * 8 * 1_000_000_000 // rate_bps
    return min(1.0, busy_ns / interval_ns)  # noqa: VR003
