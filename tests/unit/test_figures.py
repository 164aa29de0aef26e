"""The figure pipeline (benchmarks/figures.py) and the documents it feeds.

The figures themselves are slow and run apart from tier-1
(``python benchmarks/figures.py``); what is held here is everything
around them: claim evaluation, ``measure`` on a 5 ms figure, the command
line, and that ``bench_results/`` and EXPERIMENTS.md say what the
registry and the last figure pass say.
"""

import dataclasses
import math
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import figures  # noqa: E402
from figures import (EXPERIMENTS_MD, Claim, Figure, Point,  # noqa: E402
                     bench_config, measure, render, split_result)
from repro.experiments.digest import config_digest  # noqa: E402

ROWS = [{"system": "ecmp", "load_pct": 85, "mean_qct_s": 0.06},
        {"system": "vertigo", "load_pct": 85, "mean_qct_s": 0.01},
        {"system": "dibs", "load_pct": 85, "mean_qct_s": math.nan},
        {"system": "drill", "load_pct": 85, "mean_qct_s": None,
         "status": "failed"}]


def _below(system, other):
    return Claim(f"{system} below {other}",
                 lambda v: v("mean_qct_s", system=system)
                 < v("mean_qct_s", system=other))


@pytest.mark.parametrize("claim,verdict", [
    (_below("vertigo", "ecmp"),
     "holds: vertigo below ecmp [mean_qct_s(system=vertigo) = 0.01; "
     "mean_qct_s(system=ecmp) = 0.06]"),
    (_below("ecmp", "vertigo"),
     "does not hold: ecmp below vertigo [mean_qct_s(system=ecmp) = 0.06; "
     "mean_qct_s(system=vertigo) = 0.01]"),
    # NaN (no query completed), None (placeholder row of a failed point),
    # no such row, no such column, an ambiguous look-up, an empty sweep.
    (_below("vertigo", "dibs"),
     "not evaluable: vertigo below dibs [mean_qct_s(system=dibs) is nan]"),
    (_below("vertigo", "drill"),
     "not evaluable: vertigo below drill "
     "[mean_qct_s(system=drill) is missing]"),
    (_below("vertigo", "pabo"),
     "not evaluable: vertigo below pabo [no row with system=pabo]"),
    (Claim("has hops", lambda v: v("mean_hops", system="ecmp") > 0),
     "not evaluable: has hops [mean_hops(system=ecmp) is missing]"),
    (Claim("one row", lambda v: v("system", load_pct=85) == "ecmp"),
     "not evaluable: one row [4 rows match {'load_pct': 85}]"),
    (Claim("all", lambda v: max(v.all("mean_qct_s")) < 1),
     "not evaluable: all [mean_qct_s is nan]"),
])
def test_a_claim_holds_does_not_hold_or_is_not_evaluable(claim, verdict):
    assert claim.verdict(ROWS) == verdict


def test_all_reads_every_matching_row_in_table_order():
    claim = Claim("ordered", lambda v: v.all("system", load_pct=85)
                  == ["ecmp", "vertigo", "dibs", "drill"])
    assert claim.verdict(ROWS).startswith("holds: ordered [system(load_pct=85)"
                                          " = ecmp, vertigo, dibs, drill]")
    assert Claim("none", lambda v: v.all("system")).verdict([]) \
        == "not evaluable: none [no row with ]"


TINY = Figure(
    id="tiny", title="two 5 ms points", paper="(a test figure)",
    points=[Point(bench_config(system, sim_time_ns=5_000_000),
                  {"series": system.upper()})
            for system in ("ecmp", "vertigo")],
    row=lambda result: {"events": result.engine.events_executed},
    columns=["series", "system", "mean_fct_s", "drop_pct", "events"],
    claims=[Claim("both simulated something",
                  lambda v: min(v.all("events")) > 0),
            Claim("Vertigo's mean FCT is within 2x of ECMP's",
                  lambda v: v("mean_fct_s", series="VERTIGO")
                  < 2 * v("mean_fct_s", series="ECMP"))])


def test_measure_gives_the_same_text_serial_and_pooled(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    (serial,) = measure(TINY)
    monkeypatch.setenv("REPRO_JOBS", "2")
    (pooled,) = measure(TINY)
    assert serial == pooled
    banner, header, *_ = serial.splitlines()
    assert banner == "=== tiny: two 5 ms points ==="
    assert header.split() == list(TINY.columns)
    table, verdicts = split_result(serial)
    assert [line.split()[:2] for line in table.splitlines()[3:]] \
        == [["ECMP", "ecmp"], ["VERTIGO", "vertigo"]]
    assert [line.split(":")[0] for line in verdicts] == ["holds", "holds"]


@pytest.fixture
def swept(monkeypatch):
    """The config count of every sweep ``measure`` starts."""
    counts = []
    real = figures.run_supervised

    def counting(configs):
        counts.append(len(configs))
        return real(configs)

    monkeypatch.setattr(figures, "run_supervised", counting)
    return counts


def test_two_figures_sharing_configs_run_each_config_once(swept):
    panel = dataclasses.replace(TINY, id="tiny_b", points=TINY.points[1:],
                                columns=["system", "events"], claims=())
    first, second = measure(TINY, panel)
    assert swept == [2]
    assert second.splitlines()[3].split()[0] == "vertigo"
    assert second.endswith("\n\n")  # no claims: table, then nothing


def test_equal_configs_built_apart_run_once(swept):
    # Two figures whose points are equal configs from separate
    # bench_config calls: one config is swept, and both rows read it.
    twin = dataclasses.replace(
        TINY, id="tiny_twin", claims=(),
        points=[Point(bench_config(system, sim_time_ns=5_000_000),
                      {"series": system.upper()})
                for system in ("ecmp", "vertigo")])
    assert all(a.config is not b.config
               for a, b in zip(TINY.points, twin.points))
    first, second = measure(TINY, twin)
    assert swept == [2]
    assert split_result(first)[0] == split_result(second)[0] \
        .replace("tiny_twin", "tiny")


def test_a_failed_point_is_a_placeholder_row_and_not_evaluable():
    # A fan-in wider than the fabric: the point fails when it is built.
    broken = Point(bench_config("dibs", sim_time_ns=5_000_000,
                                incast_load=0.1, incast_scale=100),
                   {"series": "DIBS"})
    figure = dataclasses.replace(
        TINY, points=[*TINY.points, broken],
        claims=[*TINY.claims,
                Claim("DIBS delivers too",
                      lambda v: v("mean_fct_s", series="DIBS") > 0)])
    (text,) = measure(figure)
    table, verdicts = split_result(text)
    assert table.splitlines()[1].split()[-1] == "status"
    assert table.splitlines()[-1].split() \
        == ["DIBS", "dibs", "-", "-", "-", "failed"]
    assert verdicts == [
        "not evaluable: both simulated something [events is missing]",
        verdicts[1],
        "not evaluable: DIBS delivers too "
        "[mean_fct_s(series=DIBS) is missing]"]
    assert verdicts[1].startswith("holds: ")


# -- the command line ----------------------------------------------------


@pytest.fixture
def scratch_docs(tmp_path, monkeypatch):
    """``main`` writing into ``tmp_path``: one registered figure (TINY),
    its result file and an EXPERIMENTS.md with its one region."""
    monkeypatch.setattr(figures, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(figures, "EXPERIMENTS_MD",
                        str(tmp_path / "EXPERIMENTS.md"))
    monkeypatch.setattr(figures, "registry", lambda: {TINY.id: TINY})
    (tmp_path / "EXPERIMENTS.md").write_text(
        "# E\n<!-- figure:tiny -->\n<!-- /figure:tiny -->\n")
    return tmp_path


def test_main_writes_the_result_and_renders_the_document(scratch_docs):
    assert figures.main(["tiny"]) == 0
    text = (scratch_docs / "tiny.txt").read_text()
    assert text == measure(TINY)[0]
    rendered = (scratch_docs / "EXPERIMENTS.md").read_text()
    assert rendered == render(rendered, [TINY])
    assert "- holds: both simulated something" in rendered
    # No ids is the whole registry, and a second pass repeats every byte.
    assert figures.main([]) == 0
    assert (scratch_docs / "tiny.txt").read_text() == text
    assert (scratch_docs / "EXPERIMENTS.md").read_text() == rendered


def test_main_exits_1_when_a_claim_does_not_hold(scratch_docs, monkeypatch,
                                                  capsys):
    failing = dataclasses.replace(
        TINY, claims=[Claim("nothing simulated",
                            lambda v: max(v.all("events")) == 0)])
    monkeypatch.setattr(figures, "registry", lambda: {TINY.id: failing})
    assert figures.main([]) == 1
    assert capsys.readouterr().err.startswith(
        "does not hold: nothing simulated [events = ")


def test_main_exits_2_on_an_unknown_id_and_runs_nothing(scratch_docs, swept,
                                                        capsys):
    assert figures.main(["tiny", "fig99"]) == 2
    assert swept == []
    assert capsys.readouterr().err \
        == "figures.py: unknown figure id fig99; known: tiny\n"
    assert not (scratch_docs / "tiny.txt").exists()


# -- the committed documents ---------------------------------------------

REGISTRY = figures.registry()


@pytest.mark.parametrize("figure", REGISTRY.values(), ids=list(REGISTRY))
def test_no_figure_declares_one_config_twice(figure):
    # ``measure`` runs each distinct config once: two equal points would
    # read one result twice, and a claim comparing them would compare a
    # run with itself.
    digests = [config_digest(point.config) for point in figure.points]
    assert len(set(digests)) == len(digests)


def test_every_figure_has_its_result_file_and_nothing_is_orphaned():
    assert sorted(os.listdir(figures.RESULTS_DIR)) \
        == sorted(f"{figure_id}.txt" for figure_id in REGISTRY)


@pytest.mark.parametrize("figure", REGISTRY.values(), ids=list(REGISTRY))
def test_result_file_carries_one_verdict_line_per_claim(figure):
    with open(figure.result_path) as handle:
        table, verdicts = split_result(handle.read())
    assert table.startswith(f"=== {figure.id}: {figure.title} ===\n")
    assert table.splitlines()[1].split() == list(figure.columns)
    assert len(table.splitlines()) == 3 + len(figure.points)
    # Whether a claim held is the figure pass's verdict, not this test's.
    assert [re.match(r"(?:holds|does not hold|not evaluable): (.*?) \[",
                     line).group(1) for line in verdicts] \
        == [claim.text for claim in figure.claims]


def test_experiments_md_has_one_region_per_figure_and_no_other():
    with open(EXPERIMENTS_MD) as handle:
        text = handle.read()
    assert sorted(re.findall(r"<!-- figure:(\S+) -->", text)) \
        == sorted(REGISTRY)


def test_experiments_md_is_a_fixed_point_of_the_renderer():
    with open(EXPERIMENTS_MD) as handle:
        text = handle.read()
    assert render(text, REGISTRY.values()) == text, \
        "EXPERIMENTS.md is stale: run benchmarks/figures.py"


def test_the_renderer_touches_only_the_regions(tmp_path, monkeypatch):
    figure = dataclasses.replace(TINY, paper="What the paper says.")
    monkeypatch.setattr(figures, "RESULTS_DIR", str(tmp_path))
    (tmp_path / "tiny.txt").write_text(
        "=== tiny: t ===\na  b\n-  -\n1  2\n\nholds: x [a = 1]\n")
    before = "# Title\nhand-written\n<!-- figure:tiny -->\nold\n" \
             "<!-- /figure:tiny -->\nmore hand-written\n"
    after = render(before, [figure])
    assert after == (
        "# Title\nhand-written\n<!-- figure:tiny -->\n"
        "**Paper:** What the paper says.\n\n- holds: x [a = 1]\n\n"
        "<details><summary>tiny</summary>\n\n```\n=== tiny: t ===\n"
        "a  b\n-  -\n1  2\n```\n</details>\n"
        "<!-- /figure:tiny -->\nmore hand-written\n")
    assert render(after, [figure]) == after
    (tmp_path / "tiny.txt").write_text(
        "=== tiny: t ===\na  b\n-  -\n1  3\n\nholds: x [a = 1]\n")
    assert render(after, [figure]) != after  # an edited result is stale
    with pytest.raises(ValueError, match="0 regions for figure 'tiny'"):
        render("# no region\n", [figure])
