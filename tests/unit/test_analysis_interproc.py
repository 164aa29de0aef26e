"""Golden-findings suite: every rule in the catalog against fixtures.

Each rule has a known-bad fixture that must fire and a known-good
counterpart that must stay silent; the VR110 bad case spans two files,
pinning the cross-file (interprocedural) behaviour of the call graph.
The fixtures also carry the earn-your-keep audit (DESIGN.md, "Static
analysis"): each re-seeded historical bug, and each one-line mutant of
one that nothing else in tier-1 flags, is a case here.
"""

from pathlib import Path

import pytest

from repro.analysis.driver import (
    ALL_RULES,
    read_sources,
    render,
    run_analysis,
)
from repro.analysis.lint import LintConfig, load_config

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "lint"

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
    ("VR110", ["vr110_bad/entry.py", "vr110_bad/helper.py"],
     ["vr110_good/entry.py", "vr110_good/helper.py"]),
    ("VR120", ["vr120_bad.py"], ["vr120_good.py"]),
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
    # Every rule runs (VR090 only judges codes whose rule did).
    config = LintConfig(select=tuple(ALL_RULES))
    return [v for v in run_analysis(sources, config) if v.code == code]


@pytest.mark.parametrize("code,bad,good", CASES,
                         ids=[f"{case[0]}-{case[1][0]}" for case in CASES])
def test_bad_fixture_fires_good_fixture_passes(code, bad, good):
    assert findings(code, bad), f"{code} missed its bad fixture"
    assert findings(code, good) == [], f"{code} false positive on good"


def test_vr100_finding_names_the_seconds_source():
    [violation] = findings("VR100", ["vr100_bad.py"])
    assert "delay_ns" in violation.message
    assert "propagation_delay_s" in violation.message


def test_vr110_is_interprocedural_across_files():
    hits = findings("VR110", ["vr110_bad/entry.py", "vr110_bad/helper.py"])
    sink = [v for v in hits if "random.choice" in v.message]
    assert sink, "expected the global-draw sink finding"
    # The sink lives in helper.py but is only reachable through the
    # policy method in entry.py — the witness chain must say so.
    assert sink[0].path.endswith("helper.py")
    assert "forward" in sink[0].message
    # Neither file alone produces the reachability finding.
    alone = findings("VR110", ["vr110_bad/helper.py"])
    assert [v for v in alone if "random.choice" in v.message] == []


def test_vr120_names_both_kinds_of_state():
    hits = findings("VR120", ["vr120_bad.py"])
    messages = "\n".join(v.message for v in hits)
    assert "SEEN_FLOWS" in messages
    assert "generation" in messages


def test_vr150_catches_floats_vr100_cannot_see():
    hits = findings("VR150", ["vr150_bad.py"])
    # Both intermediates fire even though neither target is *_ns-named
    # (the helper's float division via its summary, and the inline one).
    assert len(hits) == 2
    messages = "\n".join(v.message for v in hits)
    assert "'share'" in messages
    assert "'serial'" in messages
    assert "analytic" in messages
    # ... and VR100 indeed cannot see either of them.
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
    root = Path(__file__).resolve().parents[2]
    config = load_config(root / "pyproject.toml")
    assert set(config.select) | {"VR090"} == set(ALL_RULES)
    sources, unreadable = read_sources(sorted((root / "src").rglob("*.py")))
    reported = [*unreadable, *run_analysis(sources, config)]
    assert not reported, "\n".join(render(v) for v in reported)
