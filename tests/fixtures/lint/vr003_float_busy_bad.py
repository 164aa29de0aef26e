"""VR003 bad: PR 1's telemetry bug re-seeded — the port's busy time is
computed in floats and stored under a ``*_ns`` name.
"""


def sample(delta_bytes, rate_bps, interval_ns):
    busy_ns = delta_bytes * 8 * 1e9 / rate_bps
    return min(1.0, busy_ns / interval_ns)  # noqa: VR003
