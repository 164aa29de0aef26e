"""VR090 good: the suppression sits on the line VR002 flags."""

import time


def elapsed(start):
    return time.perf_counter() - start  # noqa: VR002
