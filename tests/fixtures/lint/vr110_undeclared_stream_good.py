"""VR110 good: the stream name is declared by the module that owns it."""

RNG_STREAMS = ("runtime.backoff",)


def backoff_stream(registry):
    return registry.stream("runtime.backoff")
