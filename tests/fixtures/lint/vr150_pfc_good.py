"""VR150 good (PFC half): the same PFC arithmetic kept integral end to end —
scale to bit-nanoseconds first, then floor-divide by the link rate,
and size thresholds with integer division only.
"""


def pause_duration_ns(quanta, rate_bps):
    # 802.1Qbb: one quantum is 512 bit-times on the paused link.
    return (quanta * 512 * 1_000_000_000) // rate_bps


class ThresholdPlanner:
    def xoff_for(self, buffer_bytes, classes):
        xoff_bytes = buffer_bytes // (2 * classes)
        return xoff_bytes
