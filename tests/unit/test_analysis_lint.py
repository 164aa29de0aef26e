"""The per-file determinism / unit-discipline rules (repro.analysis.lint).

Each rule is exercised with a known-bad snippet that must fire and a
known-good idiom that must stay silent, run through the one pipeline
(``driver.run_analysis`` on in-memory sources), plus the suppression
and exemption machinery and the ``repro lint`` CLI surface.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.driver import main, render, run_analysis
from repro.analysis.lint import RULES, Violation

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "lint"


def codes(source, path="src/repro/example.py"):
    snippet = textwrap.dedent(source)
    return [v.code for v in run_analysis({path: snippet})]


# -- VR001: stochastic draws ---------------------------------------------------


def test_vr001_random_module_call():
    assert "VR001" in codes("""
        import random
        x = random.randint(1, 6)
    """)


def test_vr001_random_constructor():
    assert "VR001" in codes("""
        import random
        rng = random.Random(7)
    """)


def test_vr001_from_random_import():
    assert "VR001" in codes("from random import randint\n")


def test_vr001_annotation_is_fine():
    # Annotations such as ``rng: random.Random`` draw no entropy.
    assert codes("""
        import random

        def f(rng: random.Random) -> int:
            return rng.randrange(10)
    """) == []


def test_vr001_stream_draws_are_fine():
    assert codes("""
        def f(self):
            return self.rng.expovariate(2)
    """) == []


def test_vr001_exempt_in_rng_module():
    source = "import random\nrng = random.Random(1)\n"
    assert codes(source, path="src/repro/sim/rng.py") == []


# -- VR002: wall clocks --------------------------------------------------------


def test_vr002_time_calls():
    assert "VR002" in codes("""
        import time
        t = time.perf_counter()
    """)
    assert "VR002" in codes("""
        import time
        t = time.time()
    """)


def test_vr002_datetime_now():
    assert "VR002" in codes("""
        from datetime import datetime
        t = datetime.now()
    """)


def test_vr002_from_time_import():
    assert "VR002" in codes("from time import perf_counter\n")


def test_vr002_engine_now_is_fine():
    assert codes("""
        def f(engine):
            return engine.now
    """) == []


def test_vr002_benchmarks_exempt():
    source = "import time\nt = time.perf_counter()\n"
    assert codes(source, path="benchmarks/test_kernel.py") == []


def test_vr002_non_clock_time_attr_is_fine():
    assert codes("""
        import time
        s = time.strftime
    """) == []


# -- VR003: unit discipline ----------------------------------------------------


def test_vr003_float_literal_into_unit_name():
    assert "VR003" in codes("timeout_ns = 1.5\n")


def test_vr003_true_division_into_unit_name():
    assert "VR003" in codes("""
        def f(total, n):
            gap_ns = total / n
    """)


def test_vr003_division_of_unit_name():
    assert "VR003" in codes("""
        def f(fct_ns):
            return fct_ns / 1000
    """)


def test_vr003_float_annotation():
    assert "VR003" in codes("""
        def f(delay_ns: float):
            pass
    """)
    assert "VR003" in codes("duration_ns: float = 5\n")


def test_vr003_float_default():
    assert "VR003" in codes("""
        def f(gap_ns=1.5):
            pass
    """)


def test_vr003_float_keyword_argument():
    assert "VR003" in codes("""
        def f(g):
            g(interval_ns=2.5)
    """)


def test_vr003_aug_div():
    assert "VR003" in codes("""
        def f(budget_ns):
            budget_ns /= 2
    """)


def test_vr003_rounded_division_is_fine():
    assert codes("""
        def f(total_bytes, rate):
            delay_ns = round(total_bytes / rate)
            other_ns = int(total_bytes / rate)
    """) == []


def test_vr003_floor_division_is_fine():
    assert codes("""
        def f(size_bytes, rate_bps):
            delay_ns = size_bytes * 8 * 1_000_000_000 // rate_bps
    """) == []


def test_vr003_int_annotation_is_fine():
    assert codes("sim_time_ns: int = 5\n") == []


def test_vr003_units_module_exempt():
    assert codes("x_ns = 1.5\n", path="src/repro/sim/units.py") == []


# -- VR004: module-lifetime mutable state --------------------------------------


def test_vr004_module_level_dict():
    assert "VR004" in codes("cache = {}\n")


def test_vr004_module_level_itertools_count():
    assert "VR004" in codes("""
        import itertools
        _ids = itertools.count()
    """)


def test_vr004_class_level_list():
    assert "VR004" in codes("""
        class A:
            seen = []
    """)


def test_vr004_constant_case_is_fine():
    assert codes("TRANSPORTS = {'a': 1}\n") == []


def test_vr004_dunder_is_fine():
    assert codes("__all__ = ['x']\n") == []


def test_vr004_locals_are_fine():
    assert codes("""
        def f():
            pool = []
            return pool
    """) == []


# -- suppression --------------------------------------------------------------


def test_targeted_noqa_suppresses_one_code():
    assert codes("timeout_ns = 1.5  # noqa: VR003\n") == []


def test_mismatched_noqa_does_not_suppress():
    assert "VR003" in codes("timeout_ns = 1.5  # noqa: VR001\n")


def test_noqa_only_covers_its_own_line():
    assert "VR003" in codes("""
        a_ns = 1.5  # noqa: VR003
        b_ns = 2.5
    """)


def test_violation_render_mentions_location_and_hint():
    text = render(Violation("a.py", 3, 7, "VR003", "float value"))
    assert text.startswith("a.py:3:7: VR003")
    assert "hint:" in text


def test_rules_table_complete():
    assert list(RULES) == ["VR001", "VR002", "VR003", "VR004", "VR090",
                           "VR100", "VR110", "VR150"]


# -- the CLI surface ----------------------------------------------------------


def test_cli_exit_status(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("timeout_ns = 1.5\n")
    assert main([str(bad)]) == 1
    assert "VR003" in capsys.readouterr().out
    good = tmp_path / "good.py"
    good.write_text("timeout_ns = 2\n")
    assert main([str(good)]) == 0


def test_cli_syntax_error_reported_not_crash(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert main([str(broken)]) == 1
    assert "VR000" in capsys.readouterr().out


def test_cli_reads_each_file_in_its_declared_encoding(tmp_path, capsys):
    # A latin-1 file that compiles is checked like any other; a bad
    # coding declaration or bytes its encoding cannot decode stay VR000.
    latin = tmp_path / "latin.py"
    latin.write_bytes(b"# -*- coding: latin-1 -*-\n"
                      b"NAME = 'caf\xe9'\ntimeout_ns = 1.5\n")
    assert main([str(latin)]) == 1
    assert [line.split()[1] for line in
            capsys.readouterr().out.splitlines()] == ["VR003"]
    cookie = tmp_path / "cookie.py"
    cookie.write_bytes(b"# -*- coding: no-such-codec -*-\nX = 1\n")
    undecodable = tmp_path / "undecodable.py"
    undecodable.write_bytes(b"NAME = 'caf\xe9'\n")
    assert main([str(cookie), str(undecodable)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[1:3] for line in out] \
        == [["VR000", "unreadable:"]] * 2


def test_cli_reports_a_too_deep_file_and_goes_on(tmp_path, capsys):
    # A valid file nested past the interpreter's recursion limit is one
    # VR000 finding, like a syntax error, not a crash that loses the
    # other files' findings.
    deep = tmp_path / "deep.py"
    deep.write_text("x = " + " + ".join(["1"] * 2000) + "\n")
    assert main([str(deep), str(FIXTURES / "vr003_float_busy_bad.py")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"{deep}:0:0: VR000 too deeply nested to analyse" in out
    assert sorted(line.split()[1] for line in out) == [
        "VR000", "VR003", "VR003"]


def test_cli_checks_a_file_named_twice_once(capsys):
    named = FIXTURES / "vr003_float_busy_bad.py"
    assert main([str(named), str(FIXTURES)]) == 1
    captured = capsys.readouterr()
    count = len(list(FIXTURES.rglob("*.py")))
    assert f"{count} file(s) checked" in captured.err
    lines = captured.out.splitlines()
    assert len(set(lines)) == len(lines)


def test_cli_rejects_missing_path(capsys):
    assert main(["/no/such/path.py"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert len(err.strip().splitlines()) == 1


def test_cli_rejects_directory_without_python(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([str(empty)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "no python files" in err


def test_cli_surface_is_paths_only_and_removed_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    usage = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == {"--help"}
    assert "paths" in usage
    # The epilog is the rule catalogue.
    for code, description in RULES.items():
        assert f"{code}  {description}" in usage
    for removed in (["--format", "json"], ["--output", "x"], ["--fix"],
                    ["--baseline", "x"], ["--write-baseline"],
                    ["--cache", "x"], ["--config", "x"],
                    ["--select", "VR001"], ["--list-rules"]):
        with pytest.raises(SystemExit) as excinfo:
            main([*removed, "src"])
        assert excinfo.value.code == 2, removed
    # Paths are required: there is no configured default.
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
