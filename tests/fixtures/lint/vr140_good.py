"""VR140 good: the module registers for the hooks it uses."""

from repro.trace import hooks as _trace_hooks

_TRACE = _trace_hooks.register(__name__)


def on_enqueue(queue, packet):
    if _TRACE is not None:
        _TRACE.emit("enqueue", queue=queue.name, size=packet.size_bytes)
