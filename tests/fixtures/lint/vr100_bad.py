"""VR100 bad: a seconds-float return value crosses a call boundary
into an integer-nanosecond slot.  VR003 cannot see this (it assumes
calls are integral); VR100 reads the ``_s`` suffix of
``propagation_delay_s`` as seconds without resolving the call.
"""


def propagation_delay_s(meters):
    return meters / 2e8


def wire_up(link):
    link.delay_ns = propagation_delay_s(100)
