"""VR150 bad: one-line mutant (``//`` -> ``/``) of
``net/pfc.resolve_thresholds`` — PR 1's float-into-integer bug in a
place VR003 cannot name: ``xon`` carries no unit suffix.  The float
equals the integer whenever XOFF is even, so every PFC digest and all
of tier-1 stay green: only VR150 objects.
"""


def resolve_thresholds(configured_xon, xoff):
    xon = configured_xon or xoff / 2
    return xoff, xon
