"""Discrete-event simulation kernel.

The kernel is deliberately small: a monotonically increasing integer clock
in nanoseconds, a binary-heap event calendar, cancellable timers, and
deterministic per-component random streams.  Everything else in the
simulator (links, switches, transports, applications) is built by
scheduling callbacks on an :class:`~repro.sim.engine.Engine`.
"""
