"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, config_from_args, main
from repro.net.topology import FatTree, LeafSpine


def test_defaults_build_bench_profile():
    args = build_parser().parse_args([])
    config = config_from_args(args)
    assert config.system.name == "vertigo"
    assert config.transport_name == "dctcp"
    assert isinstance(config.topology, LeafSpine)
    assert config.topology.n_hosts == 32


def test_all_knobs_flow_through():
    args = build_parser().parse_args([
        "--system", "dibs", "--transport", "swift", "--bg-load", "0.3",
        "--incast-load", "0.1", "--incast-scale", "5",
        "--incast-flow-bytes", "2000", "--sim-ms", "10", "--seed", "9"])
    config = config_from_args(args)
    assert config.system.name == "dibs"
    assert config.transport_name == "swift"
    background, incast = config.workload.specs
    assert background.load == 0.3
    assert incast.load == 0.1
    assert incast.scale == 5
    assert incast.flow_bytes == 2000
    assert config.sim_time_ns == 10_000_000
    assert config.seed == 9


def test_fat_tree_flag():
    args = build_parser().parse_args(["--fat-tree", "4"])
    config = config_from_args(args)
    assert isinstance(config.topology, FatTree)
    assert config.topology.k == 4


def test_paper_scale_flag():
    args = build_parser().parse_args(["--paper-scale"])
    config = config_from_args(args)
    assert config.topology.n_hosts == 320
    assert config.sim_time_ns == 5_000_000_000    # the profile's default
    args = build_parser().parse_args(["--paper-scale", "--sim-ms", "10"])
    assert config_from_args(args).sim_time_ns == 10_000_000


def test_invalid_system_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--system", "bogus"])


@pytest.mark.parametrize("flag", ["--seeds", "--jobs"])
def test_run_is_one_run_multi_seed_flags_belong_to_sweep(flag):
    with pytest.raises(SystemExit) as usage:
        build_parser().parse_args([flag, "2"])
    assert usage.value.code == 2


def test_bare_invocation_is_a_usage_error(capsys):
    assert main(["--system", "ecmp", "--sim-ms", "5"]) == 2
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a subcommand" in captured.err


def assert_one_line_usage_error(capsys):
    lines = [line for line in capsys.readouterr().err.splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith("repro: error:")


TINY = ["--bg-load", "0.05", "--incast-load", "0.02",
        "--incast-scale", "3", "--incast-flow-bytes", "3000",
        "--sim-ms", "5"]


def test_run_subcommand_runs_tiny_experiment(capsys):
    assert main(["run", "--system", "ecmp", *TINY]) == 0
    out = capsys.readouterr().out
    assert "mean_fct_s" in out and "ecmp" in out


def test_checkpointed_run_prints_the_same_row_and_consumes_its_file(
        tmp_path, capsys):
    assert main(["run", *TINY]) == 0
    plain = capsys.readouterr().out
    assert main(["run", *TINY, "--checkpoint-every", "2",
                 "--checkpoint-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == plain
    assert list(tmp_path.iterdir()) == []


def test_sanitized_run_with_a_fault_scenario(capsys):
    assert main(["run", *TINY, "--sanitize", "--fault",
                 "link:leaf0-spine1:down@1ms,up@3ms"]) == 0
    assert "fault scenario:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--paper-scale", "--fat-tree", "4"],
    ["run", *TINY, "--sample-us", "100"],
    ["run", *TINY, "--trace-level", "packet"],
    ["sweep", "--systems", "ecmp", *TINY, "--stall-timeout", "5"],
    ["run", *TINY, "--pfc-headroom", "3000"],
    ["run", *TINY, "--pfc-classes", "2", "--pfc-headroom", "3000"],
    ["run", *TINY, "--demote-shares", "8"],
    ["run", *TINY, "--trace", "t.jsonl", "--sample-us", "0"],
    ["run", "--sim-ms", "5", "--workload", "background:load=0.1",
     "--bg-load", "0.3"],
])
def test_flags_that_would_do_nothing_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert_one_line_usage_error(capsys)


def test_trace_flags_write_valid_jsonl(tmp_path, capsys):
    jsonl = str(tmp_path / "t.jsonl")
    code = main(["run", "--system", "vertigo", *TINY,
                 "--trace", jsonl, "--trace-level", "packet",
                 "--sample-us", "1000"])
    assert code == 0
    capsys.readouterr()

    from repro.trace import validate_file
    assert validate_file(jsonl) == []

    code = main(["trace-view", jsonl, "--validate"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 run(s)" in out
    assert "records by kind" in out


def test_ring_overflow_is_loud_on_run_and_in_trace_view(tmp_path, capsys):
    """A 1 us sampler fills the default 200,000-sample ring inside 3 ms:
    the run says what it discarded and what the file still covers, and
    trace-view repeats both drop counts."""
    jsonl = str(tmp_path / "t.jsonl")
    assert main(["run", *TINY[:-1], "3", "--trace", jsonl,
                 "--sample-us", "1"]) == 0
    [line] = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("trace: wrote")]
    import json
    records = [json.loads(text) for text in open(jsonl)]
    dropped = records[0]["dropped_samples"]
    assert dropped > 50_000 and records[0]["dropped_events"] == 0
    first_sample_ns = next(record["t"] for record in records
                           if record["ev"].startswith("sample."))
    assert "RING BUFFERS OVERFLOWED" in line
    assert f"dropped: 0 events and {dropped} samples" in line
    assert f"samples kept {first_sample_ns / 1e6:.3f}-3.000 ms" in line

    assert main(["trace-view", jsonl]) == 0
    assert f"samples=200000 dropped_events=0 dropped_samples={dropped}" \
        in capsys.readouterr().out


def test_trace_line_stays_quiet_without_overflow_and_sums_over_runs(
        tmp_path, capsys):
    from argparse import Namespace
    from types import SimpleNamespace

    from repro.cli import _export_traces
    from repro.trace import TraceConfig, Tracer

    def traced(seed, max_events):
        tracer = Tracer(TraceConfig(max_events=max_events))
        for t in range(5):
            tracer.record(("flow.end", t * 1_000_000, t, 1))
        return SimpleNamespace(trace=tracer.detach(
            meta={"seed": seed, "sim_time_ns": 5_000_000}))

    args = Namespace(trace=str(tmp_path / "t.jsonl"))
    _export_traces([traced(1, 10), traced(2, 10)], args)
    assert capsys.readouterr().err == \
        f"trace: wrote 12 JSONL lines (2 run(s)) to {args.trace}\n"
    _export_traces([traced(1, 2), traced(2, 10), traced(3, 4)], args)
    err = capsys.readouterr().err
    assert "dropped: 4 events and 0 samples (seed=1: events kept " \
           "3.000-5.000 ms; seed=3: events kept 1.000-5.000 ms)" in err


def test_trace_view_flags_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ev":"bogus.kind","t":1}\n')
    assert main(["trace-view", str(bad), "--validate"]) == 1
    capsys.readouterr()
    # A missing file, or a line that is JSON but not an object: one
    # line, no traceback.
    missing = str(tmp_path / "missing.jsonl")
    not_object = tmp_path / "list.jsonl"
    not_object.write_text("[1,2]\n")
    for argv in (["trace-view", missing], ["trace-view", missing, "--validate"],
                 ["trace-view", str(not_object)],
                 ["trace-view", str(not_object),
                  "--chrome", str(tmp_path / "out.json")]):
        assert main(argv) == 1
        assert_one_line_usage_error(capsys)


def test_trace_view_chrome_conversion(tmp_path, capsys):
    jsonl = str(tmp_path / "t.jsonl")
    out = str(tmp_path / "converted.json")
    assert main(["run", *TINY, "--trace", jsonl]) == 0
    assert main(["trace-view", jsonl, "--chrome", out]) == 0
    capsys.readouterr()
    import json
    view = json.load(open(out))
    assert view["displayTimeUnit"] == "ms" and view["traceEvents"]


def test_sweep_subcommand(capsys):
    code = main(["sweep", "--systems", "ecmp,vertigo", *TINY])
    assert code == 0
    out = capsys.readouterr().out
    assert "ecmp" in out and "vertigo" in out


def test_sweep_rejects_unknown_system(capsys):
    assert main(["sweep", "--systems", "warp", *TINY]) == 2


def test_malformed_fault_is_one_line_usage_error(capsys):
    """A bad --fault directive exits 2 with one stderr line, no traceback."""
    for argv in (["run", *TINY, "--fault", "link:bogus"],
                 ["sweep", "--systems", "ecmp", *TINY,
                  "--fault", "link:a-b:flap@1ms"]):
        assert main(argv) == 2
        assert_one_line_usage_error(capsys)


def test_bad_repro_jobs_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "many")
    assert main(["sweep", "--systems", "ecmp", *TINY]) == 2
    err = capsys.readouterr().err
    assert "REPRO_JOBS" in err
    assert main(["sweep", "--systems", "vertigo", "--seeds", "2",
                 *TINY]) == 2
    assert "REPRO_JOBS" in capsys.readouterr().err


def test_bad_run_timeout_is_usage_error(capsys):
    assert main(["sweep", "--systems", "ecmp", *TINY,
                 "--run-timeout", "-1"]) == 2
    assert_one_line_usage_error(capsys)


def test_sweep_rejects_journal_plus_resume(tmp_path, capsys):
    assert main(["sweep", "--systems", "ecmp", *TINY,
                 "--journal", str(tmp_path / "a.jsonl"),
                 "--resume", str(tmp_path / "b.jsonl")]) == 2
    assert_one_line_usage_error(capsys)


@pytest.mark.parametrize("flag, name, content", [
    ("--resume", "missing.jsonl", None),
    ("--resume", "j.jsonl", "[1,2]\n"),
    ("--resume", "j.jsonl", "{torn\nnot json either\n"),
    ("--journal", "no-such-dir/j.jsonl", None),
], ids=["missing", "non-object-header", "unparsable", "missing-dir"])
def test_unusable_journal_is_one_line_usage_error(tmp_path, capsys, flag,
                                                  name, content):
    """One line and exit 2, before the sweep starts (no "sweeping" line)."""
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    assert main(["sweep", "--systems", "ecmp", *TINY, flag, str(path)]) == 2
    assert_one_line_usage_error(capsys)


def test_sweep_journal_refuses_to_truncate_a_journal(tmp_path, capsys):
    journal = tmp_path / "sweep.jsonl"
    argv = ["sweep", "--systems", "ecmp", *TINY, "--journal", str(journal)]
    assert main(argv) == 0
    capsys.readouterr()
    finished = journal.read_text()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and err.count("\n") == 1
    assert "pass --resume to continue it, or delete it" in err
    assert journal.read_text() == finished


def test_sweep_resume_counts_skipped_journal_lines(tmp_path, capsys):
    journal = tmp_path / "sweep.jsonl"
    assert main(["sweep", "--systems", "ecmp", *TINY,
                 "--journal", str(journal)]) == 0
    capsys.readouterr()
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write("[1,2]\n")
    assert main(["sweep", "--systems", "ecmp", *TINY,
                 "--resume", str(journal)]) == 0
    err = capsys.readouterr().err
    assert "1 resumed from journal" in err
    assert "sweep: 1 unreadable journal line(s) were skipped" in err


def test_sweep_journal_then_resume_skips_completed(tmp_path, capsys):
    journal = str(tmp_path / "sweep.jsonl")
    assert main(["sweep", "--systems", "ecmp", *TINY,
                 "--journal", journal]) == 0
    capsys.readouterr()
    assert main(["sweep", "--systems", "ecmp", *TINY,
                 "--resume", journal]) == 0
    err = capsys.readouterr().err
    assert "1 resumed from journal" in err
    assert "could not be read" not in err


def test_sweep_resume_says_when_journaled_results_were_redone(tmp_path,
                                                              capsys):
    journal = tmp_path / "sweep.jsonl"
    assert main(["sweep", "--systems", "ecmp,vertigo", *TINY,
                 "--journal", str(journal)]) == 0
    first = capsys.readouterr().out
    header, ecmp, vertigo = journal.read_text().splitlines()
    entry = json.loads(ecmp)
    entry["payload"] = entry["payload"][:-8]  # as unreadable as a stale one
    journal.write_text("\n".join([header, json.dumps(entry), vertigo]) + "\n")
    assert main(["sweep", "--systems", "ecmp,vertigo", *TINY,
                 "--resume", str(journal)]) == 0
    out, err = capsys.readouterr()
    assert out == first
    assert "1 resumed from journal" in err
    assert "sweep: 1 journaled results could not be read under this " \
           "code and were re-run" in err


def test_lint_subcommand_clean_tree():
    assert main(["lint", "src/repro/trace"]) == 0


def test_multi_seed_traces_concatenate_in_seed_order(tmp_path, capsys):
    jsonl = str(tmp_path / "seeds.jsonl")
    code = main(["sweep", "--systems", "vertigo", "--seeds", "2", *TINY,
                 "--trace", jsonl])
    assert code == 0
    import json
    seeds = [json.loads(line)["seed"] for line in open(jsonl)
             if '"trace.meta"' in line]
    assert seeds == [1, 2]


def test_workload_directives_flow_through():
    args = build_parser().parse_args([
        "--workload", "coflow:width=4,stages=2,cps=500",
        "--workload", "background:load=0.1",
        "--warmup", "2ms", "--cooldown", "1ms"])
    config = config_from_args(args)
    kinds = [spec.kind for spec in config.workload.specs]
    assert kinds == ["coflow", "background"]
    assert config.workload.specs[0].width == 4
    assert config.workload.warmup_ns == 2_000_000
    assert config.workload.cooldown_ns == 1_000_000


def test_warmup_applies_to_profile_workload():
    args = build_parser().parse_args(["--warmup", "5ms"])
    config = config_from_args(args)
    assert config.workload.warmup_ns == 5_000_000
    assert config.workload.specs[0].load == 0.5   # CLI default mix untouched


def test_run_with_workload_reports_cct(capsys):
    code = main(["run", "--system", "ecmp", "--sim-ms", "5",
                 "--workload", "coflow:width=3,cps=2000,bytes=5000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_cct_s" in out


def test_malformed_workload_is_one_line_usage_error(capsys):
    """A bad --workload directive exits 2, mirroring --fault."""
    for argv in (["run", "--sim-ms", "5", "--workload", "warp"],
                 ["run", "--sim-ms", "5", "--workload",
                  "coflow:pattern=ring"],
                 ["sweep", "--systems", "ecmp", "--sim-ms", "5",
                  "--workload", "background:load=much"],
                 # Removed spellings: no skew, no long key aliases.
                 ["run", "--sim-ms", "5", "--workload",
                  "background:load=0.1,skew=zipf"],
                 ["run", "--sim-ms", "5", "--workload",
                  "background:distribution=web_search"]):
        assert main(argv) == 2
        assert_one_line_usage_error(capsys)
