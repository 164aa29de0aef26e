"""Golden-findings suite: every rule in the catalog against fixtures.

Each rule has a known-bad fixture that must fire and a known-good
counterpart that must stay silent.  The fixtures also carry the
earn-your-keep audit (DESIGN.md, "Static analysis"): each re-seeded
historical bug, and each one-line mutant of one that nothing else in
tier-1 flags, is a case here — and the two mutants of live code are
re-applied to the real tree by ``test_recorded_src_mutant_fires``.
"""

from pathlib import Path

import pytest

from repro.analysis.driver import read_sources, render, run_analysis

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = ROOT / "tests" / "fixtures" / "lint"

CASES = [
    # Re-seeded historical bugs and their one-line mutants (the audit).
    ("VR001", ["vr001_seeded_random_bad.py"],
     ["vr001_seeded_random_good.py"]),
    ("VR002", ["vr002_wallclock_tiebreak_bad.py"],
     ["vr002_wallclock_tiebreak_good.py"]),
    ("VR003", ["vr003_float_busy_bad.py"], ["vr003_float_busy_good.py"]),
    ("VR004", ["vr004_counters_bad.py"], ["vr004_counters_good.py"]),
    ("VR090", ["vr090_stale_noqa_bad.py"], ["vr090_stale_noqa_good.py"]),
    ("VR003", ["vr100_helper_busy_bad.py"], ["vr100_helper_busy_good.py"]),
    ("VR110", ["vr110_undeclared_stream_bad.py"],
     ["vr110_undeclared_stream_good.py"]),
    ("VR150", ["vr150_threshold_bad.py"], ["vr150_threshold_good.py"]),
    # Rule behaviour.
    ("VR003", ["vr100_bad.py"], ["vr100_good.py"]),
    ("VR001", ["vr110_bad/entry.py", "vr110_bad/helper.py"],
     ["vr110_good/entry.py", "vr110_good/helper.py"]),
    ("VR150", ["vr150_bad.py"], ["vr150_good.py"]),
    ("VR150", ["vr150_pfc_bad.py"], ["vr150_pfc_good.py"]),
]


def findings(code, names):
    files = [FIXTURES / name for name in names]
    for path in files:
        assert path.is_file(), f"missing fixture {path}"
    sources, unreadable = read_sources(files)
    assert not unreadable
    return [v for v in run_analysis(sources) if v.code == code]


@pytest.mark.parametrize("code,bad,good", CASES,
                         ids=[f"{case[0]}-{case[1][0]}" for case in CASES])
def test_bad_fixture_fires_good_fixture_passes(code, bad, good):
    assert findings(code, bad), f"{code} missed its bad fixture"
    assert findings(code, good) == [], f"{code} false positive on good"


def test_vr003_provenance_names_the_seconds_source():
    [violation] = findings("VR003", ["vr100_bad.py"])
    assert "delay_ns" in violation.message
    assert "propagation_delay_s" in violation.message


def test_vr150_catches_floats_no_unit_name_carries():
    [hit] = findings("VR150", ["vr150_bad.py"])
    # The inline intermediate fires though its target is not *_ns-named
    # (the unsuffixed helper's result one line up is an unknown).
    assert hit.line == 14
    assert "'serial'" in hit.message
    assert "analytic" in hit.message
    # VR003 sees only the helper's division, outside the analytic path.
    assert [v.line for v in findings("VR003", ["vr150_bad.py"])] == [9]


def test_vr150_covers_pfc_functions_and_threshold_classes():
    hits = findings("VR150", ["vr150_pfc_bad.py"])
    messages = "\n".join(v.message for v in hits)
    # The pause-duration return (function-name marker) ...
    assert "pause_duration" in messages
    # ... and the threshold math (class-name marker) both fire.
    assert "'fraction'" in messages
    # Each statement is reported once, as VR150 alone.
    assert findings("VR003", ["vr150_pfc_bad.py"]) == []


def test_an_integer_only_function_gets_the_stricter_report_alone():
    # Inside one, VR150 flags every statement VR003 would, and more.
    source = ("def pause_ns(rate_s):\n"
              "    delay_ns = rate_s * 2\n"
              "    return delay_ns / 2\n")
    assert [(v.line, v.code) for v in run_analysis({"x.py": source})] \
        == [(2, "VR150"), (3, "VR150")]


def test_fixture_findings_are_pinned_exactly():
    # Every code, position, message and hint, in order: the output the
    # pipeline's structure must not move.
    sources = {path.relative_to(ROOT).as_posix(): path.read_text("utf-8")
               for path in sorted(FIXTURES.rglob("*.py"))}
    rendered = [render(v) for v in run_analysis(sources)]
    expected = (ROOT / "tests" / "fixtures" / "lint_findings.txt")
    assert rendered == expected.read_text("utf-8").splitlines()


def test_full_tree_is_clean_under_all_passes():
    # CI's lint step: src examples benchmarks/*.py (the frozen
    # ledger under benchmarks/ledger/ is not linted).
    files = [path for tree in ("src", "examples")
             for path in sorted((ROOT / tree).rglob("*.py"))]
    files += sorted((ROOT / "benchmarks").glob("*.py"))
    sources, unreadable = read_sources(files)
    reported = [*unreadable, *run_analysis(sources)]
    assert not reported, "\n".join(render(v) for v in reported)


SRC_MUTANTS = [
    # PR 1's float-into-integer bug where VR003 has no suffix to go on;
    # equal to the integer whenever XOFF is even, so PFC digests hold.
    ("VR150", "src/repro/net/pfc.py",
     "    xon = config.xon_bytes or xoff // 2\n",
     "    xon = config.xon_bytes or xoff / 2\n", ""),
    # PR 1's float busy_ns, arriving through a helper: no division or
    # float literal on the flagged line, value numerically unchanged.
    ("VR003", "src/repro/trace/sampler.py",
     "busy_ns = (delta * 8 * 1_000_000_000 // rate) if rate else 0\n",
     "busy_ns = _busy_s(delta, rate) * 1_000_000_000\n",
     "\n\ndef _busy_s(delta, rate):\n"
     "    return delta * 8 / rate if rate else 0\n"),
]


@pytest.mark.parametrize("code,path,before,after,appended", SRC_MUTANTS,
                         ids=[case[1] for case in SRC_MUTANTS])
def test_recorded_src_mutant_fires(code, path, before, after, appended):
    source = (ROOT / path).read_text(encoding="utf-8")
    assert source.count(before) == 1, f"{path} no longer has the line"
    line = source[:source.index(before)].count("\n") + 1
    assert run_analysis({path: source}) == []
    mutant = source.replace(before, after) + appended
    hits = run_analysis({path: mutant})
    assert [(v.line, v.code) for v in hits] == [(line, code)], hits
