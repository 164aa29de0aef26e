"""VR003 good (provenance): the conversion happens at the boundary, inside the
helper, so only integer nanoseconds ever reach the ``*_ns`` slot.
"""


def propagation_delay_ns(meters):
    return int(meters / 2e8 * 1e9)


def wire_up(link):
    link.delay_ns = propagation_delay_ns(100)
