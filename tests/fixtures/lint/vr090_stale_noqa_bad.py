"""VR090 bad: the shape of the nine stale comments this rule found when
``# noqa`` became tracked — the suppression sits on the import, where
VR002 never fires (it flags wall-clock *calls*).
"""

import time  # noqa: VR002


def elapsed(start):
    return time.perf_counter() - start  # noqa: VR002
