"""VR003 bad (provenance): a seconds-float return value crosses a
call boundary into an integer-nanosecond slot.  The flagged line holds
no division and no float literal; VR003 reads the ``_s`` suffix of
``propagation_delay_s`` as seconds without resolving the call.
"""


def propagation_delay_s(meters):
    return meters / 2e8


def wire_up(link):
    link.delay_ns = propagation_delay_s(100)
