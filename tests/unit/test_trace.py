"""repro.trace core: hook registry, tracer, record log, ring, levels."""

import ast
import collections
from pathlib import Path

import pytest

import repro
from repro import ExperimentConfig
from repro.analysis import sanitize
from repro.experiments import runner
from repro.net.fidelity import FidelityConfig
from repro.net.pfc import PfcConfig
from repro.sim.units import MILLISECOND
from repro.trace import (
    EVENT_FIELDS,
    PACKET_KINDS,
    TraceConfig,
    Tracer,
)
from repro.trace import hooks
from repro.trace.tracer import ARITY, CHUNK_RECORDS


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with the hooks dormant."""
    assert hooks.active() is None
    yield
    hooks.deactivate()


def test_register_returns_current_tracer():
    assert hooks.register("tests.fake_module") is None
    tracer = Tracer(TraceConfig())
    with hooks.activated(tracer):
        assert hooks.register("tests.other_fake") is tracer


def test_activate_rewrites_registered_modules():
    import repro.sim.engine as engine_mod
    import repro.net.switch as switch_mod

    assert engine_mod._TRACE is None
    assert switch_mod._TRACE is None
    tracer = Tracer(TraceConfig())
    with hooks.activated(tracer):
        assert engine_mod._TRACE is tracer
        assert switch_mod._TRACE is tracer
    assert engine_mod._TRACE is None
    assert switch_mod._TRACE is None


def test_nested_activation_rejected():
    with hooks.activated(Tracer(TraceConfig())):
        with pytest.raises(RuntimeError):
            hooks.activate(Tracer(TraceConfig()))


def test_flow_level_skips_packet_events():
    config = TraceConfig(level="flow")
    assert not config.packets
    assert TraceConfig(level="packet").packets
    with pytest.raises(ValueError):
        TraceConfig(level="verbose")


def test_packet_kinds_cover_pkt_and_ord_namespaces():
    for kind in EVENT_FIELDS:
        expected = kind.startswith(("pkt.", "ord."))
        assert (kind in PACKET_KINDS) == expected


def test_event_ring_buffer_bounds_memory():
    tracer = Tracer(TraceConfig(max_events=10))
    for i in range(25):
        tracer.record(("flow.end", i, i, i))
    data = tracer.detach(meta={})
    assert len(data.events) == 10
    assert data.emitted_events == 25
    assert data.dropped_events == 15
    # Oldest records were discarded deterministically.
    assert [record[2] for record in data.events] == list(range(15, 25))


def port_sample(t, qbytes=0):
    """One ``sample.port`` record, laid out as the sampler lays it."""
    return ["sample.port", t, "leaf0", 0, qbytes, 1, 0.5]


def test_sample_ring_buffer_bounds_memory():
    tracer = Tracer(TraceConfig(max_samples=4))
    for i in range(9):
        tracer.sample_tick(port_sample(i, qbytes=i), {"sample.port": 1})
    data = tracer.detach(meta={})
    assert len(data.samples) == 4
    assert data.dropped_samples == 5
    assert [record[4] for record in data.samples] == [5, 6, 7, 8]


def test_detach_carries_meta_and_counts():
    tracer = Tracer(TraceConfig())
    tracer.record(("flow.start", 5, 1, "h0", "h1", 100, False, None))
    tracer.record(("flow.end", 90, 1, 85))
    data = tracer.detach(meta={"seed": 7})
    assert data.meta["seed"] == 7
    assert data.counts() == {"flow.start": 1, "flow.end": 1}
    assert len(data.digest()) == 64


def test_detach_leaves_the_tracer_recording():
    tracer = Tracer(TraceConfig())
    tracer.record(("flow.end", 1, 1, 1))
    first = tracer.detach()
    tracer.record(("flow.end", 2, 2, 2))
    assert list(first.events) == [("flow.end", 1, 1, 1)]
    assert list(tracer.detach().events) == [("flow.end", 1, 1, 1),
                                            ("flow.end", 2, 2, 2)]


# -- the record census --------------------------------------------------------
#
# The log's only structure is ARITY (values per record, from
# EVENT_FIELDS): a site that lays down one value too many corrupts every
# record after it.  Every record site is a ``_TRACE.record((...))`` call
# with a tuple literal, so the whole schema is checked statically here.

SRC = Path(repro.__file__).resolve().parent


def is_trace(node, attr=None):
    """``node`` is ``_TRACE.<attr>`` (any attribute when ``attr`` is None)."""
    return (isinstance(node, ast.Attribute) and attr in (None, node.attr)
            and isinstance(node.value, ast.Name) and node.value.id == "_TRACE")


def record_sites():
    """(where, call, packets_guarded) for every ``_TRACE.<...>(...)``
    call in ``src/``; ``packets_guarded`` says whether an enclosing ``if``
    reads ``_TRACE.packets``."""
    sites = []

    def walk(node, guarded, where):
        if isinstance(node, ast.Call) and is_trace(node.func):
            sites.append((f"{where}:{node.lineno}", node, guarded))
        for child in ast.iter_child_nodes(node):
            inner = guarded
            if isinstance(node, ast.If) and child in node.body:
                inner = guarded or any(is_trace(n, "packets")
                                       for n in ast.walk(node.test))
            walk(child, inner, where)

    for path in sorted(SRC.rglob("*.py")):
        where = str(path.relative_to(SRC))
        walk(ast.parse(path.read_text(), filename=where), False, where)
    return sites


def test_schema_field_tuples_match_recorders():
    """Every record site passes one tuple literal of a schema kind and
    exactly its arity; packet-scope kinds, and only they, sit under a
    ``_TRACE.packets`` guard; every event kind has a site."""
    seen = set()
    for where, call, guarded in record_sites():
        assert is_trace(call.func, "record"), where
        assert not call.keywords and len(call.args) == 1, where
        values = call.args[0]
        assert isinstance(values, ast.Tuple), where
        head = values.elts[0]
        assert isinstance(head, ast.Constant) and head.value in EVENT_FIELDS, \
            where
        kind = head.value
        assert len(values.elts) == ARITY[kind], (where, kind)
        assert guarded == (kind in PACKET_KINDS), (where, kind)
        seen.add(kind)
    # The remaining kinds are the sampler's (see the tick test below).
    assert set(EVENT_FIELDS) - seen == {
        "sample.port", "sample.lane", "sample.flow", "sample.fid"}


def test_record_lays_down_the_values_and_counts_the_kind():
    public = {name for name, member in vars(Tracer).items()
              if callable(member) and not name.startswith("_")}
    assert public == {"record", "sample_tick", "detach"}
    tracer = Tracer(TraceConfig(level="packet"))
    tracer.record(("pfc.pause", 11, "leaf0", 1, 0, 9000))
    assert tracer._events.open == ["pfc.pause", 11, "leaf0", 1, 0, 9000]
    data = tracer.detach()
    assert list(data.events) == [("pfc.pause", 11, "leaf0", 1, 0, 9000)]
    assert data.counts() == {"pfc.pause": 1}


def test_sampler_tick_lays_down_whole_records_of_all_four_sample_kinds():
    """One tick over a PFC + hybrid world emits sample.port / .lane /
    .flow / .fid; the sanitizer's chunk walk (every record start a known
    kind, the last record ending at the chunk's end, as many records as
    the sampler reported) holds their arity."""
    config = ExperimentConfig.bench_profile(
        system="ecmp", transport="dcqcn", bg_load=0.5, incast_load=0.25,
        sim_time_ns=MILLISECOND, seed=1)
    config.pfc = PfcConfig(enabled=True, num_classes=2, priority_map=(0, 1))
    config.fidelity = FidelityConfig(mode="hybrid")
    config.trace = TraceConfig(level="flow", sample_period_ns=MILLISECOND)
    with sanitize.scoped(True):
        world = runner._build_world(config)
        world.engine.run(until=MILLISECOND // 2)
        world.sampler._on_tick()
        data = world.tracer.detach()
    kinds = data.counts()
    assert set(kinds) == {"sample.port", "sample.lane", "sample.flow",
                          "sample.fid"}
    assert kinds["sample.lane"] == 2 * kinds["sample.port"]
    for record in data.samples:
        assert len(record) == len(EVENT_FIELDS[record[0]]) + 2


# -- ring semantics across chunk boundaries ----------------------------------


def record_mixed(tracer, n):
    """``n`` event records of three different arities."""
    for i in range(n):
        if i % 3 == 0:
            tracer.record(("cc.fastrtx", i, i))
        elif i % 3 == 1:
            tracer.record(("flow.end", i, i, 2 * i))
        else:
            tracer.record(("pfc.pause", i, "leaf0", 1, 0, i))


@pytest.mark.parametrize("bound", [
    CHUNK_RECORDS // 2,               # smaller than one chunk
    CHUNK_RECORDS,                    # exactly one chunk
    CHUNK_RECORDS * 5 // 2,           # two and a half chunks
])
@pytest.mark.parametrize("extra", [0, 1, CHUNK_RECORDS + 7])
def test_event_ring_retains_exactly_the_newest_records(bound, extra):
    total = bound + extra
    unbounded = Tracer(TraceConfig())
    bounded = Tracer(TraceConfig(max_events=bound))
    record_mixed(unbounded, total)
    record_mixed(bounded, total)
    everything = list(unbounded.detach().events)
    data = bounded.detach()
    assert len(everything) == total
    assert list(data.events) == everything[-bound:]
    assert len(data.events) == bound
    assert data.emitted_events == total
    assert data.dropped_events == extra
    walked = collections.Counter(record[0] for record in data.events)
    assert data.counts() == dict(sorted(walked.items()))
    # Whole chunks fell off during the run (at each seal): the live log
    # holds less than the bound plus two chunks.
    assert len(bounded._events) < bound + 2 * CHUNK_RECORDS


def test_sample_ring_retains_exactly_the_newest_records():
    bound = CHUNK_RECORDS + CHUNK_RECORDS // 2
    per_tick, ticks = 7, 3 * CHUNK_RECORDS // 7
    unbounded = Tracer(TraceConfig())
    bounded = Tracer(TraceConfig(max_samples=bound))
    for tracer in (unbounded, bounded):
        for t in range(ticks):
            values = []
            for i in range(per_tick):
                values += port_sample(t, qbytes=i)
            tracer.sample_tick(values, {"sample.port": per_tick})
    everything = list(unbounded.detach().samples)
    data = bounded.detach()
    assert list(data.samples) == everything[-bound:]
    assert data.emitted_samples == ticks * per_tick
    assert data.dropped_samples == ticks * per_tick - bound
    assert data.counts() == {"sample.port": bound}


# -- what a record costs -----------------------------------------------------


@pytest.fixture(scope="module")
def packet_traced_world():
    """A 10 ms packet-traced, 100 us-sampled bench run, kept live."""
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.5, incast_load=0.25,
        sim_time_ns=10 * MILLISECOND, seed=1)
    config.trace = TraceConfig(level="packet", sample_period_ns=100_000)
    world = runner._build_world(config)
    with hooks.activated(world.tracer):
        world.engine.run(until=config.sim_time_ns)
    return world


def test_no_per_record_container_survives_the_run(packet_traced_world):
    data = packet_traced_world.tracer.detach()
    records = len(data.events) + len(data.samples)
    assert records > 40_000
    chunks = data.events.chunks + data.samples.chunks
    # The recorder's own containers: the chunks and their two indexes.
    assert len(chunks) + 4 <= records / 1000
    for chunk in data.events.chunks:
        assert type(chunk) is tuple
        assert all(type(value) in (int, str, bool, type(None))
                   for value in chunk)
    # Samples nest only the congestion-control detail, and equal details
    # within a tick are one shared tuple.
    nested = [value for chunk in data.samples.chunks for value in chunk
              if type(value) not in (int, str, float, type(None))]
    assert {type(value) for value in nested} == {tuple}
    flow_samples = data.counts()["sample.flow"]
    assert len(nested) == flow_samples
    assert len({id(value) for value in nested}) < flow_samples / 5


def test_sampler_tick_formats_nothing(packet_traced_world, monkeypatch):
    import builtins

    calls = []
    real_round = builtins.round

    def counting_round(*args):
        calls.append(args)
        return real_round(*args)

    monkeypatch.setattr(builtins, "round", counting_round)
    sampler = packet_traced_world.sampler
    before = packet_traced_world.tracer.detach().emitted_samples
    sampler._on_tick()
    assert packet_traced_world.tracer.detach().emitted_samples > before
    assert calls == []
