"""Unit helpers.

All simulation time is kept as integer **nanoseconds** to avoid floating
point drift over long runs; all data sizes are integer **bytes** and all
rates are integer **bits per second**.  The helpers here convert between
human-friendly quantities and those canonical units.

Rounding contract
-----------------
The ``seconds``/``usecs``/``gbps``/``mbps``/``kb`` converters use
Python's built-in :func:`round` — round-half-to-**even**
("banker's rounding"), so ``seconds(0.5e-9) == 0`` but
``seconds(1.5e-9) == 2``.  Sub-resolution values round to ``0``; callers
that need a strictly positive duration must clamp (``max(1, ...)``).
Because the input is a float, magnitudes whose product with the scale
exceeds 2**53 (≈104 days for ``seconds``) are not exactly representable;
for exact large quantities, do integer arithmetic with the ``SECOND`` /
``MILLISECOND`` / ... constants instead of going through a float.
:func:`transmission_delay_ns` is the exception: it is pure integer
arithmetic and rounds **up** (ceiling) so back-to-back packets never
overlap on the wire.

This module is the single place float↔int unit conversion is allowed;
everywhere else ``repro.analysis.lint`` rule VR003 enforces integer
arithmetic on ``*_ns`` / ``*_bytes`` / ``*_bps`` quantities.
"""

from __future__ import annotations

MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000

KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(value * SECOND)


def usecs(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(value * MICROSECOND)


def gbps(value: float) -> int:
    """Convert gigabits per second to bits per second."""
    return round(value * GIGA)


def mbps(value: float) -> int:
    """Convert megabits per second to bits per second."""
    return round(value * MEGA)


def kb(value: float) -> int:
    """Convert kilobytes (10^3 bytes) to bytes."""
    return round(value * KILO)


def transmission_delay_ns(size_bytes: int, rate_bps: int) -> int:
    """Time to serialize ``size_bytes`` onto a link of ``rate_bps``.

    Rounded up to a whole nanosecond so that back-to-back packets never
    overlap on the wire.
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps}")
    bits = size_bytes * 8
    return -(-bits * SECOND // rate_bps)  # ceil division


def fmt_time(t_ns: int) -> str:
    """Render a nanosecond timestamp with an adaptive unit for logs."""
    if t_ns >= SECOND:
        return f"{t_ns / SECOND:.6f}s"
    if t_ns >= MILLISECOND:
        return f"{t_ns / MILLISECOND:.3f}ms"
    if t_ns >= MICROSECOND:
        return f"{t_ns / MICROSECOND:.3f}us"
    return f"{t_ns}ns"
