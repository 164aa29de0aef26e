"""Deterministic trace serialization: JSONL and Chrome ``trace_event``.

Two formats, both pure functions of the recorded
:class:`~repro.trace.tracer.TraceData` (canonical JSON: sorted keys,
fixed separators, no wall-clock fields), so the same seeded run yields
byte-identical files whether it executed serially or through the
parallel sweep executor.  A run writes JSONL; the Chrome view is a
conversion of that file (``trace-view --chrome``):

- **JSONL** — one JSON object per line.  Each run contributes a
  ``trace.meta`` header line (schema version, run identity, ring-buffer
  accounting) followed by its event records then its sample records,
  each ``{"ev": <kind>, "t": <ns>, ...}`` per the
  :data:`~repro.trace.tracer.EVENT_FIELDS` schema.  Multi-run files
  (``repro sweep --trace``) concatenate per-run blocks in run order.
- **Chrome trace_event JSON** — loadable in Perfetto / ``chrome://
  tracing``: packet/flow events become instant events on per-node
  threads, port-queue and flow-cwnd samples become counter tracks, and
  each run is a separate process.

:func:`validate_lines` checks a JSONL export against the schema;
``python -m repro trace-view --validate`` runs it.
"""

from __future__ import annotations

import json
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.trace.tracer import (EVENT_FIELDS, TRACE_SCHEMA, VALUE_TYPES,
                                TraceData)

_CANONICAL = {"sort_keys": True, "separators": (",", ":")}


def _dumps(obj: Dict[str, object]) -> str:
    return json.dumps(obj, **_CANONICAL)


def meta_record(data: TraceData) -> Dict[str, object]:
    """The ``trace.meta`` header object for one run's block."""
    record: Dict[str, object] = {
        "ev": "trace.meta",
        "schema": TRACE_SCHEMA,
        "level": data.config.level,
        "sample_period_ns": data.config.sample_period_ns,
        "events": len(data.events),
        "samples": len(data.samples),
        "dropped_events": data.dropped_events,
        "dropped_samples": data.dropped_samples,
    }
    record.update(data.meta)
    return record


#: Fields whose floats are rounded to six decimals on the way out: the
#: sampler records ``cwnd`` and the congestion-control detail raw.
_ROUNDED_FIELDS = ("cwnd", "cc")

_LITERALS = {None: "null", True: "true", False: "false"}

_Writers = Dict[type, Callable[[object], str]]


class _JsonStrings(dict):
    """``json.dumps`` of each distinct string, computed once (a trace
    repeats a few node names and reasons many thousand times)."""

    def __missing__(self, text: str) -> str:
        encoded = self[text] = json.dumps(text)
        return encoded


def _writers(strings: _JsonStrings, rounding: bool) -> _Writers:
    """The JSON text of a recorded value, by its type (one of
    :data:`VALUE_TYPES`, or a tuple of them); with ``rounding``, of its
    floats rounded to six decimals."""
    text = {
        int: str,
        float: ((lambda value: float.__repr__(round(value, 6)))
                if rounding else float.__repr__),
        str: strings.__getitem__,
        bool: _LITERALS.__getitem__,
        type(None): _LITERALS.__getitem__,
    }
    writers: _Writers = {kind: text[kind] for kind in VALUE_TYPES}
    writers[tuple] = lambda items: "[" + ",".join(
        [writers[type(item)](item) for item in items]) + "]"
    return writers


def _line_plans() -> Dict[str, Tuple[str, List[Tuple[int, _Writers]]]]:
    """Per kind: its JSONL line with the keys in sorted order and a
    ``%s`` for each value, and ``(record position, writers)`` for the
    values that fill them, in that order."""
    strings = _JsonStrings()
    plain, rounding = _writers(strings, False), _writers(strings, True)
    plans = {}
    for kind, fields in EVENT_FIELDS.items():
        names = ("ev", "t") + fields
        keys = sorted(names)
        template = ",".join(
            json.dumps(key) + ":" + (json.dumps(kind) if key == "ev"
                                     else "%s") for key in keys)
        plans[kind] = ("{" + template + "}", [
            (names.index(key), rounding if key in _ROUNDED_FIELDS else plain)
            for key in keys if key != "ev"])
    return plans


def jsonl_lines(data: TraceData) -> Iterator[str]:
    """Canonical JSONL lines for one run: meta, events, samples.

    Each record line is, byte for byte, ``json.dumps`` of the record's
    object with sorted keys and ``(",", ":")`` separators — written
    through a per-kind template rather than through a dict per line.
    """
    yield _dumps(meta_record(data))
    plans = _line_plans()
    for log in (data.events, data.samples):
        for record in log:
            template, plan = plans[record[0]]
            yield template % tuple([writers[type(record[position])](
                record[position]) for position, writers in plan])


def write_jsonl(traces: Sequence[TraceData], path: str) -> int:
    """Write one or more runs' traces as a JSONL file; returns lines."""
    lines = 0
    with open(path, "w") as handle:
        for data in traces:
            for line in jsonl_lines(data):
                handle.write(line)
                handle.write("\n")
                lines += 1
    return lines


# -- Chrome trace_event ---------------------------------------------------------

#: One run's block of a JSONL export, parsed: the ``trace.meta`` header
#: object plus the run's records, in file order (events then samples).
RunBlock = tuple


def _parsed(lines: Iterable[str]) -> Iterator[tuple]:
    """``(lineno, value, error)`` for each non-blank JSONL line: the
    decoded value, or ``None`` and the reason it is not JSON."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            yield lineno, None, f"not JSON ({exc})"
            continue
        yield lineno, value, None


def _objects(path: str) -> Iterator[Dict[str, object]]:
    """The JSON object of each non-blank line of ``path``; a line that
    is not one is a ``ValueError`` naming it."""
    with open(path) as handle:
        for lineno, obj, error in _parsed(handle):
            if error is None and not isinstance(obj, dict):
                error = "not a JSON object"
            if error is not None:
                raise ValueError(f"{path}: line {lineno}: {error}")
            yield obj


def read_jsonl(path: str) -> List[RunBlock]:
    """Parse a JSONL trace file back into per-run ``(meta, records)``."""
    runs: List[RunBlock] = []
    for obj in _objects(path):
        if obj.get("ev") == "trace.meta":
            runs.append((obj, []))
        elif runs:
            runs[-1][1].append(obj)
        else:
            raise ValueError(f"{path}: record before any trace.meta header")
    return runs


def chrome_trace_from_blocks(runs: Sequence[RunBlock]) -> Dict[str, object]:
    """Chrome ``trace_event`` view of one or more runs.

    Each run is a process (pid = run index + 1); each node (switch or
    host) is a thread within it, named via metadata events.  Times are
    microseconds of simulation time.
    """
    events: List[Dict[str, object]] = []
    for run_index, (meta, records) in enumerate(runs):
        pid = run_index + 1
        label = f"run seed={meta.get('seed', run_index)}"
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name", "args": {"name": label}})
        tids: Dict[str, int] = {}

        def tid_of(node: str) -> int:
            tid = tids.get(node)
            if tid is None:
                tid = tids[node] = len(tids) + 1
                events.append({"ph": "M", "pid": pid, "tid": tid,
                               "name": "thread_name",
                               "args": {"name": node}})
            return tid

        for record in records:
            obj = dict(record)
            kind = obj.pop("ev")
            ts = obj.pop("t") / 1000.0  # µs display boundary
            if kind == "sample.port":
                events.append({
                    "ph": "C", "ts": ts, "pid": pid,
                    "name": f"{obj['node']}:p{obj['port']} queue",
                    "args": {"bytes": obj["qbytes"],
                             "pkts": obj["qpkts"]},
                })
            elif kind == "sample.flow":
                events.append({
                    "ph": "C", "name": f"flow{obj['flow']} cwnd",
                    "ts": ts, "pid": pid,
                    "args": {"cwnd": obj["cwnd"]},
                })
            else:
                node = obj.pop("node", None)
                events.append({
                    "ph": "i", "s": "t", "name": kind, "ts": ts,
                    "pid": pid,
                    "tid": tid_of(node) if node is not None else 0,
                    "args": obj,
                })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def convert_jsonl_to_chrome(jsonl_path: str, out_path: str) -> int:
    """JSONL file → Chrome trace file (``trace-view --chrome``, the one
    way to a Chrome trace); returns the number of trace events."""
    view = chrome_trace_from_blocks(read_jsonl(jsonl_path))
    with open(out_path, "w") as handle:
        handle.write(_dumps(view))
        handle.write("\n")
    return len(view["traceEvents"])


# -- validation -----------------------------------------------------------------


def validate_lines(lines: Iterable[str]) -> List[str]:
    """Validate a JSONL export against the trace schema.

    Returns a list of human-readable problems (empty = valid): parse
    failures, unknown event kinds, missing or mistyped fields, and a
    stream that does not start with a ``trace.meta`` header.
    """
    problems: List[str] = []
    saw_any = False
    saw_meta = False
    for lineno, obj, error in _parsed(lines):
        saw_any = True
        if error is not None:
            problems.append(f"line {lineno}: {error}")
            continue
        if not isinstance(obj, dict) or "ev" not in obj:
            problems.append(f"line {lineno}: missing 'ev' field")
            continue
        kind = obj["ev"]
        if kind == "trace.meta":
            saw_meta = True
            schema = obj.get("schema")
            # Exact types: JSON ``true`` is a bool, an int equal to 1.
            if type(schema) is not int or schema != TRACE_SCHEMA:
                problems.append(f"line {lineno}: unsupported schema "
                                f"{schema!r} (expected {TRACE_SCHEMA})")
            continue
        if not saw_meta:
            problems.append(f"line {lineno}: record before any trace.meta "
                            f"header")
            saw_meta = True  # report once
        fields = EVENT_FIELDS.get(kind)
        if fields is None:
            problems.append(f"line {lineno}: unknown event kind {kind!r}")
            continue
        if type(obj.get("t")) is not int or obj["t"] < 0:
            problems.append(f"line {lineno}: {kind}: 't' must be a "
                            f"non-negative integer nanosecond count")
        missing = [name for name in fields if name not in obj]
        if missing:
            problems.append(f"line {lineno}: {kind}: missing fields "
                            f"{missing}")
        extra = sorted(set(obj) - set(fields) - {"ev", "t"})
        if extra:
            problems.append(f"line {lineno}: {kind}: undocumented fields "
                            f"{extra}")
    if not saw_any:
        problems.append("empty trace file")
    return problems


def validate_file(path: str) -> List[str]:
    """Validate a JSONL trace file on disk (see :func:`validate_lines`)."""
    with open(path) as handle:
        return validate_lines(handle)


def summarize_file(path: str) -> str:
    """Human-readable summary of a JSONL trace file (trace-view)."""
    runs: List[Dict[str, object]] = []
    counts: Dict[str, int] = {}
    drops: Dict[str, int] = {}
    t_min: Optional[int] = None
    t_max: Optional[int] = None
    deflections = 0
    for obj in _objects(path):
        kind = obj.get("ev", "?")
        if kind == "trace.meta":
            runs.append(obj)
            continue
        counts[kind] = counts.get(kind, 0) + 1
        t = obj.get("t")
        if type(t) is int:
            t_min = t if t_min is None else min(t_min, t)
            t_max = t if t_max is None else max(t_max, t)
        if kind == "pkt.drop":
            reason = obj.get("reason", "?")
            drops[reason] = drops.get(reason, 0) + 1
        elif kind == "pkt.deflect":
            deflections += 1
    lines = [f"{len(runs)} run(s), {sum(counts.values())} records"]
    for meta in runs:
        lines.append(
            f"  seed={meta.get('seed')} system={meta.get('system')} "
            f"transport={meta.get('transport')} level={meta.get('level')} "
            f"events={meta.get('events')} samples={meta.get('samples')} "
            f"dropped_events={meta.get('dropped_events')} "
            f"dropped_samples={meta.get('dropped_samples')}")
    if t_min is not None:
        span_ms = (t_max - t_min) / 1_000_000
        lines.append(f"time span: {t_min}..{t_max} ns ({span_ms:.3f} ms)")
    if counts:
        lines.append("records by kind:")
        for kind, count in sorted(counts.items()):
            lines.append(f"  {kind:<14} {count}")
    if deflections:
        lines.append(f"deflections traced: {deflections}")
    if drops:
        lines.append("drops by reason: " + ", ".join(
            f"{reason}={count}" for reason, count in sorted(drops.items())))
    return "\n".join(lines)
