"""Span accounting, wrapper hygiene, determinism and the file contract."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalog
import compare
import measure
import run as ledger_run
import spans
import workloads

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]


# -- span accounting on a synthetic call tree -------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def synthetic_tree(clock):
    """root A.run -> B.work -> (C.leaf, B.helper [same layer], C.leaf)."""
    class C:
        def leaf(self):
            clock.now += 3

    class B:
        def __init__(self):
            self.c = C()

        def helper(self):
            clock.now += 4

        def work(self):
            clock.now += 7
            self.c.leaf()
            clock.now += 2
            self.helper()
            self.c.leaf()

    class A:
        def __init__(self):
            self.b = B()

        def run(self):
            clock.now += 5
            self.b.work()
            clock.now += 1

    return A, B, C


def test_self_time_is_duration_minus_children_and_sums_to_root():
    clock = FakeClock()
    A, B, C = synthetic_tree(clock)
    ledger = spans.Ledger(clock=clock, layers=("a", "b", "c", spans.OTHER))
    a = A()  # built before install: construction is outside the root anyway
    ledger.install_class(A, "a", roots=("synthetic_tree.<locals>.A.run",))
    ledger.install_class(B, "b")
    ledger.install_class(C, "c")
    a.run()
    ledger.remove()

    assert ledger.root_ns == 25
    by_layer = dict(zip(ledger.layers, ledger.self_ns))
    assert by_layer == {"a": 6, "b": 13, "c": 6, spans.OTHER: 0}
    assert sum(ledger.self_ns) == ledger.root_ns
    assert dict(zip(ledger.layers, ledger.entries)) == \
        {"a": 1, "b": 1, "c": 2, spans.OTHER: 0}
    # B.helper stayed inside layer b: counted as a call, not as a span.
    assert ledger.call_counts()["synthetic_tree.<locals>.B.helper"] == 1
    assert dict(zip(ledger.layers, ledger.passthrough()))["b"] == 1
    # Raw spans carry name, start, end and the span that caused them.
    names = [(s[0].rsplit(".", 2)[-2:], s[2], s[3], s[4], s[5])
             for s in sorted(ledger.samples, key=lambda s: s[4])]
    assert names == [(["A", "run"], 0, 25, 0, -1),
                     (["B", "work"], 5, 24, 1, 0),
                     (["C", "leaf"], 12, 15, 2, 1),
                     (["C", "leaf"], 21, 24, 3, 1)]
    events = ledger.chrome_trace()["traceEvents"]
    assert [e["args"]["parent"] for e in events] == [1, 1, 0, -1]


def test_nothing_counts_outside_the_root():
    clock = FakeClock()
    A, B, C = synthetic_tree(clock)
    ledger = spans.Ledger(clock=clock, layers=("a", "b", "c", spans.OTHER))
    for cls, layer in ((A, "a"), (B, "b"), (C, "c")):
        ledger.install_class(cls, layer)  # no root named
    A().run()
    assert sum(ledger.entries) == 0 and sum(ledger.calls) == 0
    assert ledger.root_ns == 0


def test_an_exception_unwinds_the_span_stack():
    clock = FakeClock()

    class Thrower:
        def boom(self):
            clock.now += 2
            raise ValueError("boom")

    class Runner:
        def run(self, thrower):
            try:
                thrower.boom()
            except ValueError:
                clock.now += 1

    ledger = spans.Ledger(clock=clock, layers=("r", "t", spans.OTHER))
    ledger.install_class(Runner, "r", roots=(
        "test_an_exception_unwinds_the_span_stack.<locals>.Runner.run",))
    ledger.install_class(Thrower, "t")
    Runner().run(Thrower())
    assert dict(zip(ledger.layers, ledger.self_ns)) == \
        {"r": 1, "t": 2, spans.OTHER: 0}
    assert ledger._st[0] == -1  # inactive again


# -- wrapper hygiene on the real package ------------------------------------

def _class_attributes():
    import importlib

    for name in spans.PRELOAD:
        importlib.import_module(name)
    found = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or spans.layer_of(module_name) is None:
            continue
        for obj in list(vars(module).values()):
            if isinstance(obj, type) and obj.__module__ == module_name:
                for attr, value in vars(obj).items():
                    found[(obj, attr)] = value
    return found


def test_install_then_remove_restores_every_attribute_by_identity():
    from repro.sim.engine import Engine

    before = _class_attributes()
    ledger = spans.Ledger()
    patched = ledger.install()
    try:
        assert patched > 300
        assert hasattr(vars(Engine)["run"], "__wrapped__")
        assert vars(Engine)["run"].__name__ == "run"  # bound methods pickle
    finally:
        ledger.remove()
    after = _class_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_every_layer_prefix_names_a_real_module():
    import importlib

    for _, prefixes in spans.LAYERS:
        for prefix in prefixes:
            importlib.import_module(prefix)
    assert spans.layer_of("repro.forwarding.vertigo") == "forwarding"
    assert spans.layer_of("repro.net.packet") == spans.OTHER
    assert spans.layer_of("json") is None


# -- the instrumentation does not perturb the simulation --------------------

def _spans_run(workload, seed=1):
    configs = workload.configs(seed, spans=True, quick=True)
    ledger = spans.Ledger()
    ledger.install()
    try:
        results = workload.execute_in_process(configs)
    finally:
        ledger.remove()
    sim_ms = sum(c.sim_time_ns for c in configs) / 1e6
    return ledger, results, sim_ms


def test_spans_run_digest_equals_untraced_and_zeros_hold():
    workload = workloads.BY_NAME["incast-ecmp"]
    configs = workload.configs(1, spans=True, quick=True)
    plain = measure.run_digests(workload.execute_in_process(configs), True)
    ledger, results, _ = _spans_run(workload)
    assert measure.run_digests(results, True) == plain
    assert sum(ledger.self_ns) == ledger.root_ns > 0
    entries = dict(zip(ledger.layers, ledger.entries))
    assert entries["net.link"] > 0 and entries["sim.engine"] > 0
    for bypassed in ("core.scheduler", "core.marking", "core.cuckoo",
                     "core.ordering", "net.pfc", "net.fidelity", "trace"):
        assert entries[bypassed] == 0, bypassed


def test_deterministic_counters_repeat_exactly():
    workload = workloads.BY_NAME["incast-vertigo"]
    first, results_a, sim_ms = _spans_run(workload)
    second, results_b, _ = _spans_run(workload)
    assert first.entries == second.entries
    assert first.calls == second.calls and first.names == second.names
    ratios_a, missing = measure.ratios(first, results_a, sim_ms)
    ratios_b, _ = measure.ratios(second, results_b, sim_ms)
    assert ratios_a == ratios_b
    assert missing == []
    assert ratios_a["forwarding.deflections_per_hop"] > 0
    assert 0 < ratios_a["net.link.tx_per_try"] <= 1
    assert measure.modelled(results_a) == measure.modelled(results_b)


@pytest.mark.parametrize("name", sorted(workloads.BY_NAME))
def test_another_seed_changes_the_digest_and_invariants_hold(name):
    workload = workloads.BY_NAME[name]
    digests = []
    for seed in (1, 2):
        results = workload.execute_in_process(
            workload.configs(seed, quick=True))
        assert workload.check(results) == []
        digests.append(measure.run_digests(results, include_trace=True))
    assert digests[0] != digests[1]


def test_stats_digest_ignores_events_executed_and_wall_clock():
    workload = workloads.BY_NAME["incast-ecmp"]
    result = workload.execute_in_process(
        workload.configs(1, quick=True))[0]
    digest = measure.stats_digest(result)
    result.engine.events_executed += 1
    result.profile["run"] = 123.0
    assert measure.stats_digest(result) == digest
    result.metrics.counters.retransmissions += 1
    assert measure.stats_digest(result) != digest


# -- results are valid JSON --------------------------------------------------

def test_nan_becomes_null():
    text = measure.dumps({"mean_hops": float("nan"), "x": (1, float("inf"))})
    assert json.loads(text) == {"mean_hops": None, "x": [1, None]}


# -- compare -------------------------------------------------------------------

def _cell(value, q1=None, q3=None):
    return {"value": value, "q1": value if q1 is None else q1,
            "q3": value if q3 is None else q3}


def test_compare_verdicts():
    wall = catalog.BY_NAME["wall_s_per_sim_s"]
    bound = wall.bound
    judge = lambda a, b: compare.verdict(wall, a, b)["verdict"]  # noqa: E731
    assert judge(_cell(10), _cell(10 * (1 + bound / 2))) == "unchanged"
    assert judge(_cell(10), _cell(10 * (1 + 2 * bound))) == "regressed"
    assert judge(_cell(10), _cell(10 * (1 - 2 * bound))) == "improved"
    wide = _cell(10, 10 * (1 - bound), 10 * (1 + bound))
    assert judge(wide, _cell(10)) == "unresolved"
    fail = catalog.FAIL_SHARE
    assert compare.verdict(fail, _cell(0), _cell(0))["verdict"] == "unchanged"
    assert compare.verdict(fail, _cell(0), _cell(0.1))["verdict"] \
        == "regressed"


def test_compare_exit_status(tmp_path):
    def report(wall):
        return {"mode": "full", "workloads": {"incast-ecmp": {"e2e": {
            "wall_s_per_sim_s": _cell(wall)}}}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report(10.0)))
    b.write_text(json.dumps(report(10.1)))
    assert compare.main([str(a), str(b)]) == 0
    b.write_text(json.dumps(report(20.0)))
    assert compare.main([str(a), str(b)]) == 1


# -- BENCHMARK.json says what the catalogue says -----------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert spec["run_seconds"] == ledger_run.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in catalog.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]
             + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert len(spec["per_layer"]) <= 128


def test_driver_line_has_every_metric_as_a_number():
    values = {m.name: None for m in catalog.PER_LAYER}
    values["net.link.self_us_per_sim_ms"] = 12.5
    entry = {"per_layer": values,
             "ops": {"attempted": 4, "failed": 0, "errors": []}}
    line = json.loads(ledger_run.driver_line(entry, trace=1))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == {m.name for m in catalog.PER_LAYER}
    assert all(isinstance(cell["value"], (int, float))
               for cell in line["metrics"].values())
    assert line["metrics"]["bench.digest_matches_recorded"]["value"] == -1
    assert ledger_run.driver_line({"e2e": {}, "ops": entry["ops"]}, 0) is None


# -- the driver's contract, end to end ---------------------------------------

def test_trace_0_prints_the_end_to_end_metrics_last():
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--quick", "--workload",
         "incast-ecmp", "--seed", "3", "--trace", "0"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in catalog.END_TO_END}
    assert all(cell["value"] > 0 for cell in line["metrics"].values())


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "incast-ecmp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
