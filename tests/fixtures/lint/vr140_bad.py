"""VR140 bad: one-line mutant of ``net/link.py`` — the module binds
``_TRACE`` without registering, so ``hooks.activate`` never switches
it on and its hooks silently never fire.  The guards keep every
traced-off *and* traced-on run green (all of tier-1 passes with link
records missing): only VR140 objects.
"""

_TRACE = None


def on_enqueue(queue, packet):
    if _TRACE is not None:
        _TRACE.emit("enqueue", queue=queue.name, size=packet.size_bytes)
