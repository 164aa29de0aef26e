"""VR100 bad: one-line mutant of PR 1's float ``busy_ns`` — the float
now arrives through a helper call, so the flagged line holds no
division and no float literal.  VR003 sees nothing, the value is
numerically what it was, and tier-1 stays green: only VR100 objects.
"""


def _busy_s(delta_bytes, rate_bps):
    return delta_bytes * 8 / rate_bps


def sample(delta_bytes, rate_bps):
    busy_ns = _busy_s(delta_bytes, rate_bps) * 1_000_000_000
    return busy_ns
