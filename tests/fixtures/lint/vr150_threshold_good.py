"""VR150 good: XON stays an integer byte count."""


def resolve_thresholds(configured_xon, xoff):
    xon = configured_xon or xoff // 2
    return xoff, xon
