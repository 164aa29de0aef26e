"""repro.trace.export: JSONL, Chrome trace_event, validation."""

import json

import pytest

from repro.trace.config import TraceConfig
from repro.trace.export import (
    convert_jsonl_to_chrome,
    jsonl_lines,
    read_jsonl,
    summarize_file,
    validate_file,
    validate_lines,
    write_jsonl,
)
from repro.trace.tracer import EVENT_FIELDS, Tracer


def make_trace(seed=1):
    tracer = Tracer(TraceConfig(level="packet"))
    tracer.record(("flow.start", 10, seed, "h0", "h1", 3000, False, None))
    tracer.record(("pkt.enqueue", 20, "leaf0", 0, 1, 0, 1500))
    tracer.record(("pkt.deflect", 25, "leaf0", 0, 1, 1, 0, 1))
    tracer.record(("pkt.drop", 30, "leaf0", "queue_overflow", 1, 0, 1500))
    tracer.record(("flow.end", 99, seed, 89))
    tracer.sample_tick(
        ["sample.port", 50, "leaf0", 0, 4500, 3, 0.75,
         "sample.flow", 50, "h0", seed, 4.5, 8000, 2, 1, ("dctcp", 0.1)],
        {"sample.port": 1, "sample.flow": 1})
    return tracer.detach(meta={"seed": seed, "system": "vertigo",
                               "transport": "dctcp"})


def test_jsonl_starts_with_meta_then_events_then_samples():
    lines = list(jsonl_lines(make_trace()))
    objs = [json.loads(line) for line in lines]
    assert objs[0]["ev"] == "trace.meta"
    assert objs[0]["schema"] == 1
    assert objs[0]["seed"] == 1
    kinds = [obj["ev"] for obj in objs[1:]]
    assert kinds == ["flow.start", "pkt.enqueue", "pkt.deflect",
                     "pkt.drop", "flow.end", "sample.port", "sample.flow"]


def test_jsonl_lines_are_canonical_json():
    for line in jsonl_lines(make_trace()):
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))


def reference_line(record):
    """The dict-per-line exporter the templates replaced: field names
    zipped with the values, ``cwnd`` and the ``cc`` floats rounded to six
    decimals, ``json.dumps`` with sorted keys."""
    def rounded(value):
        return round(value, 6) if isinstance(value, float) else value

    obj = {"ev": record[0], "t": record[1]}
    for name, value in zip(EVENT_FIELDS[record[0]], record[2:]):
        if name == "cwnd":
            value = rounded(value)
        elif name == "cc":
            value = [rounded(item) for item in value]
        obj[name] = value
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_template_lines_match_the_reference_exporter_on_awkward_values():
    tracer = Tracer(TraceConfig(level="packet"))
    tracer.record(("flow.start", 1, 2 ** 70, 0, 31, 1, True, 7))
    tracer.record(("flow.start", 2, -1, "h\u00e9", 'q"uo\\te', 0, False,
                   None))
    tracer.record(("pkt.drop", 3, "leaf0\n", "100% \u2028 %s", 1, 0, 1500))
    tracer.record(("coflow.start", 4, 1, "", 0, 1))
    tracer.sample_tick(
        # util is exported as recorded; cwnd and the cc floats rounded.
        ["sample.port", 5, "s", 0, 0, 0, 0.123456789012,
         "sample.flow", 5, "h0", 1, 10, None, 0, 0, (),
         "sample.flow", 5, "h0", 2, 2.00000049, 8000, 2, 1,
         ("reno", None),
         "sample.flow", 5, "h0", 3, 3.3e-6, 1, 2, 3,
         ("dcqcn", 160_000_000, 0.1234567, 1e22),
         "sample.fid", 5, 1, 2, 3, 4, 5],
        {"sample.port": 1, "sample.flow": 3, "sample.fid": 1})
    data = tracer.detach()
    lines = list(jsonl_lines(data))[1:]
    records = list(data.events) + list(data.samples)
    assert lines == [reference_line(record) for record in records]
    assert '"util":0.123456789012' in lines[4]
    assert '"cwnd":2.0,' in lines[6] and '"cwnd":3e-06,' in lines[7]
    assert '"cc":["dcqcn",160000000,0.123457,1e+22]' in lines[7]


def test_jsonl_export_validates_clean(tmp_path):
    path = str(tmp_path / "t.jsonl")
    lines = write_jsonl([make_trace(1), make_trace(2)], path)
    assert lines == 16  # 2 runs x (1 meta + 5 events + 2 samples)
    assert validate_file(path) == []


def test_validator_catches_problems():
    assert validate_lines([]) == ["empty trace file"]
    problems = validate_lines(['{"ev":"flow.end","t":1,"flow":1,'
                               '"fct_ns":2}'])
    assert any("before any trace.meta" in p for p in problems)
    meta = '{"ev":"trace.meta","schema":1}'
    assert validate_lines([meta, "not json"]) != []
    assert any("unknown event kind" in p for p in
               validate_lines([meta, '{"ev":"bogus.kind","t":1}']))
    assert any("missing fields" in p for p in
               validate_lines([meta, '{"ev":"flow.end","t":1}']))
    assert any("undocumented fields" in p for p in
               validate_lines([meta, '{"ev":"flow.end","t":1,"flow":1,'
                                     '"fct_ns":2,"extra":3}']))
    assert any("'t'" in p for p in
               validate_lines([meta, '{"ev":"flow.end","t":-5,"flow":1,'
                                     '"fct_ns":2}']))
    assert any("schema" in p for p in
               validate_lines(['{"ev":"trace.meta","schema":99}']))


def test_validator_rejects_booleans_where_integers_belong():
    """JSON ``true`` decodes to a ``bool``, which Python counts as an
    ``int`` equal to 1: neither a time nor a schema version."""
    meta = '{"ev":"trace.meta","schema":1}'
    assert validate_lines([meta, '{"ev":"flow.end","t":true,"flow":1,'
                                 '"fct_ns":2}']) == [
        "line 2: flow.end: 't' must be a non-negative integer nanosecond "
        "count"]
    assert validate_lines(['{"ev":"trace.meta","schema":true}']) == [
        "line 1: unsupported schema True (expected 1)"]


def test_readers_share_one_line_parser_and_its_problem_strings(tmp_path):
    meta = '{"ev":"trace.meta","schema":1}'
    not_json = "not JSON (Expecting value: line 1 column 1 (char 0))"
    assert validate_lines([meta, "not json", "", "[1,2]", '{"t":1}']) == [
        f"line 2: {not_json}", "line 4: missing 'ev' field",
        "line 5: missing 'ev' field"]
    path = tmp_path / "t.jsonl"
    for body, problem in (("not json\n", f"line 1: {not_json}"),
                          ("\n[1,2]\n", "line 2: not a JSON object")):
        path.write_text(body)
        for reader in (read_jsonl, summarize_file):
            with pytest.raises(ValueError) as excinfo:
                reader(str(path))
            assert str(excinfo.value) == f"{path}: {problem}"


def test_chrome_trace_structure(tmp_path):
    jsonl = str(tmp_path / "t.jsonl")
    chrome = str(tmp_path / "t.json")
    write_jsonl([make_trace(1), make_trace(2)], jsonl)
    count = convert_jsonl_to_chrome(jsonl, chrome)
    view = json.load(open(chrome))
    assert set(view) == {"traceEvents", "displayTimeUnit"}
    assert count == len(view["traceEvents"])
    events = view["traceEvents"]
    phases = {event["ph"] for event in events}
    assert phases == {"M", "i", "C"}
    pids = {event["pid"] for event in events}
    assert pids == {1, 2}  # one process per run
    names = {event["args"].get("name") for event in events
             if event["ph"] == "M"}
    assert "run seed=1" in names and "leaf0" in names
    counters = [event for event in events if event["ph"] == "C"]
    assert {counter["name"] for counter in counters} == \
        {"leaf0:p0 queue", "flow1 cwnd", "flow2 cwnd"}


def test_read_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "t.jsonl")
    write_jsonl([make_trace(1), make_trace(2)], path)
    runs = read_jsonl(path)
    assert len(runs) == 2
    meta, records = runs[0]
    assert meta["seed"] == 1
    assert len(records) == 7


def test_read_jsonl_rejects_headerless_stream(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ev":"flow.end","t":1,"flow":1,"fct_ns":2}\n')
    with pytest.raises(ValueError):
        read_jsonl(str(path))
