"""VR150 bad (PFC half): float arithmetic inside PFC pause/threshold code.  The
assignments never touch a ``*_ns`` name directly, so VR100 stays
silent — but the pause duration lands on the integer-ns calendar and
the XOFF threshold gates integer byte counters, where float rounding
makes pause timing platform-dependent.
"""


def pause_duration(quanta, rate_bps):
    # 802.1Qbb: one quantum is 512 bit-times on the paused link.
    return quanta * 512 * 1e9 / rate_bps


class ThresholdPlanner:
    def xoff_for(self, buffer_bytes, classes):
        fraction = buffer_bytes / (2 * classes)
        return fraction
