"""VR150 bad: float arithmetic inside an analytic completion-time
computation.  Neither assignment targets a ``*_ns`` name, so no VR003
binding fires — but both intermediates feed the round-completion
timestamp, where float rounding breaks digest determinism.
"""


def _share_rate(rate_bps, shares):
    return rate_bps / shares


def analytic_round_time(size_bytes, rate_bps, shares, base_rtt_ns):
    share = _share_rate(rate_bps, shares)
    serial = size_bytes * 8 * 1e9 / share
    return base_rtt_ns + int(serial)
