"""VR100 good: the helper returns integer nanoseconds."""


def _busy_ns(delta_bytes, rate_bps):
    return delta_bytes * 8 * 1_000_000_000 // rate_bps


def sample(delta_bytes, rate_bps):
    busy_ns = _busy_ns(delta_bytes, rate_bps)
    return busy_ns
