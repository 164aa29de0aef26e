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
from repro.analysis.lint import RULES, LintConfig, load_config

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
    ("VR100", ["vr100_helper_busy_bad.py"], ["vr100_helper_busy_good.py"]),
    ("VR110", ["vr110_undeclared_stream_bad.py"],
     ["vr110_undeclared_stream_good.py"]),
    ("VR150", ["vr150_threshold_bad.py"], ["vr150_threshold_good.py"]),
    # Rule behaviour.
    ("VR100", ["vr100_bad.py"], ["vr100_good.py"]),
    ("VR001", ["vr110_bad/entry.py", "vr110_bad/helper.py"],
     ["vr110_good/entry.py", "vr110_good/helper.py"]),
    ("VR140", ["vr140_bad.py"], ["vr140_good.py"]),
    ("VR150", ["vr150_bad.py"], ["vr150_good.py"]),
    ("VR150", ["vr150_pfc_bad.py"], ["vr150_pfc_good.py"]),
]


def findings(code, names):
    files = [FIXTURES / name for name in names]
    for path in files:
        assert path.is_file(), f"missing fixture {path}"
    sources, unreadable = read_sources(files)
    assert not unreadable
    # The default: every rule runs (VR090 only judges codes whose rule did).
    return [v for v in run_analysis(sources, LintConfig()) if v.code == code]


@pytest.mark.parametrize("code,bad,good", CASES,
                         ids=[f"{case[0]}-{case[1][0]}" for case in CASES])
def test_bad_fixture_fires_good_fixture_passes(code, bad, good):
    assert findings(code, bad), f"{code} missed its bad fixture"
    assert findings(code, good) == [], f"{code} false positive on good"


def test_vr100_finding_names_the_seconds_source():
    [violation] = findings("VR100", ["vr100_bad.py"])
    assert "delay_ns" in violation.message
    assert "propagation_delay_s" in violation.message


def test_vr150_catches_floats_vr100_cannot_see():
    [hit] = findings("VR150", ["vr150_bad.py"])
    # The inline intermediate fires though its target is not *_ns-named
    # (the unsuffixed helper's result one line up is an unknown).
    assert hit.line == 14
    assert "'serial'" in hit.message
    assert "analytic" in hit.message
    # ... and VR100 indeed cannot see it.
    assert findings("VR100", ["vr150_bad.py"]) == []


def test_vr150_covers_pfc_functions_and_threshold_classes():
    hits = findings("VR150", ["vr150_pfc_bad.py"])
    messages = "\n".join(v.message for v in hits)
    # The pause-duration return (function-name marker) ...
    assert "pause_duration" in messages
    # ... and the threshold math (class-name marker) both fire.
    assert "'fraction'" in messages
    # VR100 sees neither: no *_ns name is involved.
    assert findings("VR100", ["vr150_pfc_bad.py"]) == []


def test_vr140_reports_the_missing_registration_once():
    [violation] = findings("VR140", ["vr140_bad.py"])
    assert "never registers" in violation.message


def test_full_tree_is_clean_under_all_passes():
    config = load_config(ROOT / "pyproject.toml")
    assert config.select == tuple(RULES)
    sources, unreadable = read_sources(sorted((ROOT / "src").rglob("*.py")))
    reported = [*unreadable, *run_analysis(sources, config)]
    assert not reported, "\n".join(render(v) for v in reported)


SRC_MUTANTS = [
    # PR 1's float-into-integer bug where VR003 has no suffix to go on;
    # equal to the integer whenever XOFF is even, so PFC digests hold.
    ("VR150", "src/repro/net/pfc.py",
     "    xon = config.xon_bytes or xoff // 2\n",
     "    xon = config.xon_bytes or xoff / 2\n", ""),
    # PR 1's float busy_ns, arriving through a helper: no division or
    # float literal on the flagged line, value numerically unchanged.
    ("VR100", "src/repro/trace/sampler.py",
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
    assert run_analysis({path: source}, LintConfig()) == []
    mutant = source.replace(before, after) + appended
    hits = run_analysis({path: mutant}, LintConfig())
    assert [(v.line, v.code) for v in hits] == [(line, code)], hits
