"""VR110 bad: PR 6's stream-ownership bug re-seeded — the module draws
from a named stream it never declares in ``RNG_STREAMS`` (as
``net/builder``, ``faults/injector``, ``experiments/runner`` and
``runtime/policy`` all did).
"""


def backoff_stream(registry):
    return registry.stream("runtime.backoff")
