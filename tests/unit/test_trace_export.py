"""repro.trace.export: JSONL, Chrome trace_event, validation."""

import json

import pytest

from repro.trace import (
    TraceConfig,
    Tracer,
    convert_jsonl_to_chrome,
    jsonl_lines,
    read_jsonl,
    validate_file,
    validate_lines,
    write_jsonl,
)


def make_trace(seed=1):
    tracer = Tracer(TraceConfig(level="packet"))

    class Pkt:
        flow_id = seed
        seq = 0
        wire_bytes = 1500
        deflections = 1
        hops = 3

    tracer.flow_start(10, flow=seed, src="h0", dst="h1", size=3000,
                      is_incast=False, query=None)
    tracer.pkt_enqueue(20, "leaf0", 0, Pkt())
    tracer.pkt_deflect(25, "leaf0", 0, 1, Pkt())
    tracer.pkt_drop(30, "leaf0", "queue_overflow", Pkt())
    tracer.flow_end(99, flow=seed, fct_ns=89)
    tracer.sample_port(50, "leaf0", 0, qbytes=4500, qpkts=3, util=0.75)
    tracer.sample_flow(50, "h0", flow=seed, cwnd=4.5, srtt_ns=8000,
                       inflight=2, acked=1, cc=("dctcp", 0.1))
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
