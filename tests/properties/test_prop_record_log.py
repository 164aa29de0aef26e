"""Property-based tests: the trace record log is an exact ring of typed
values.

A :class:`~repro.trace.tracer.RecordLog` lays records end to end, seals
full chunks into pickled bytes, counts the event log's kinds when a
chunk seals (and the open chunk's at detach) and the sampler's from the
counts each tick hands in.  Random streams over every kind, with values
that compare equal across types (``True`` and ``1``, ``0`` and
``False``, ``-0.0`` and ``0.0``), ints beyond 64 bits, ``1e308``,
``None``, non-ASCII text and ``cc`` tuples both shared and merely equal,
run through small chunks and small ring bounds, with sampler ticks that
overrun a chunk and detaches in mid-stream.  Every detached log, and
its pickle round trip, must hold exactly the newest ``bound`` records,
value for value and type for type, and its ``emitted``, ``dropped`` and
``counts()`` must be the reference model's.
"""

import pickle
from collections import Counter
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.analysis import sanitize
from repro.trace import tracer as tracer_mod
from repro.trace.config import TraceConfig
from repro.trace.export import jsonl_lines
from repro.trace.tracer import EVENT_FIELDS, Tracer

SAMPLE_KINDS = sorted(kind for kind in EVENT_FIELDS
                      if kind.startswith("sample."))
EVENT_KINDS = sorted(set(EVENT_FIELDS) - set(SAMPLE_KINDS))

#: Values that are equal to one another but not of one type, or sit at
#: the edges of what a pickle stores.
_AWKWARD = st.sampled_from([True, False, 1, 0, -0.0, 0.0, 1e308, -1e308,
                            2**63, -2**63 - 1, 2**100, None, "", "leaf0",
                            "héte", "節点", "drain"])
_VALUE = st.one_of(_AWKWARD, st.integers(), st.text(max_size=4),
                   st.floats(allow_nan=False, allow_infinity=False))
#: Two equal ``cc`` tuples that are distinct objects, and one of them
#: again (the sampler shares equal details within a tick).
_CC_POOL = [("dctcp", 0.5), tuple(["dctcp", 0.5]), ("reno", None, True),
            ("dcqcn", 10**11, 2**70)]


@st.composite
def _record(draw, kind):
    values = [kind, draw(st.integers(min_value=0, max_value=2**62))]
    for name in EVENT_FIELDS[kind]:
        values.append(draw(st.sampled_from(_CC_POOL)) if name == "cc"
                      else draw(_VALUE))
    return tuple(values)


_EVENT = st.sampled_from(EVENT_KINDS).flatmap(_record)
_SAMPLE = st.sampled_from(SAMPLE_KINDS).flatmap(_record)
_OP = st.one_of(
    st.tuples(st.just("record"), _EVENT),
    st.tuples(st.just("tick"), st.lists(_SAMPLE, max_size=7)),
    st.tuples(st.just("detach"), st.none()),
)


def _exact(records):
    """Records as ``(type, repr)`` pairs: ``True`` is not ``1`` here,
    nor ``-0.0`` ``0.0``, and a tuple's items are compared the same way."""
    return [tuple((type(value), repr(value)) for value in record)
            for record in records]


def _assert_holds(log, model, bound):
    retained = model[-bound:]
    assert _exact(log) == _exact(retained)
    assert len(log) == len(retained)
    assert log.emitted == len(model)
    assert log.dropped == len(model) - len(retained)
    assert log.counts() == dict(Counter(record[0] for record in retained))


def _assert_detached(data, events, samples, max_events, max_samples):
    _assert_holds(data.events, events, max_events)
    _assert_holds(data.samples, samples, max_samples)
    assert all(type(chunk) is bytes
               for chunk in data.events.chunks + data.samples.chunks)
    expected = Counter(record[0] for record in
                       events[-max_events:] + samples[-max_samples:])
    assert data.counts() == dict(sorted(expected.items()))


@given(program=st.lists(_OP, max_size=40),
       chunk=st.integers(min_value=1, max_value=5),
       max_events=st.integers(min_value=1, max_value=12),
       max_samples=st.integers(min_value=1, max_value=12),
       sanitized=st.booleans())
@settings(max_examples=300, deadline=None)
def test_detached_log_is_the_newest_records_exactly(
        program, chunk, max_events, max_samples, sanitized):
    events, samples = [], []
    with mock.patch.multiple(tracer_mod, CHUNK_RECORDS=chunk,
                             MAX_EVENTS=max_events,
                             MAX_SAMPLES=max_samples), \
            sanitize.scoped(sanitized):
        tracer = Tracer(TraceConfig(level="packet"))
        for op, arg in program:
            if op == "record":
                tracer.record(arg)
                events.append(arg)
            elif op == "tick":
                values = [value for record in arg for value in record]
                tracer.sample_tick(values,
                                   Counter(record[0] for record in arg))
                samples.extend(arg)
            else:
                # A detach leaves the live log as it was.
                _assert_detached(tracer.detach(), events, samples,
                                 max_events, max_samples)
            # No sealed chunk outlives the window: the oldest one still
            # holds a record of the newest ``bound``.
            for log in (tracer._events, tracer._samples):
                assert sum(log.sizes[1:]) < log.bound
        data = tracer.detach(meta={"seed": 1})
        _assert_detached(data, events, samples, max_events, max_samples)
        copy = pickle.loads(pickle.dumps(data, pickle.HIGHEST_PROTOCOL))
        _assert_detached(copy, events, samples, max_events, max_samples)
        assert list(jsonl_lines(copy)) == list(jsonl_lines(data))
