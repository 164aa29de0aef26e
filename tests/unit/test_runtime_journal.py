"""Sweep journal: roundtrip, verification, and crash tolerance."""

import base64
import json
import pickle

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import config_digest, run_digest
from repro.experiments.runner import run_experiment
from repro.runtime import (RUN_STATUSES, JournalError, RunOutcome,
                           SweepJournal, run_supervised)


@pytest.fixture(scope="module")
def tiny_result():
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.1,
        sim_time_ns=1_000_000, seed=1)
    return config, run_experiment(config).portable()


def test_roundtrip_ok_entry(tmp_path, tiny_result):
    config, result = tiny_result
    digest = config_digest(config)
    path = str(tmp_path / "j.jsonl")
    with SweepJournal.create(path, n_points=1) as journal:
        journal.record(RunOutcome(0, digest, "ok", 1, 0.5, result=result))
    with SweepJournal.resume(path) as journal:
        loaded = journal.completed(digest)
        assert loaded is not None
        assert run_digest(loaded.result) == run_digest(result)
        assert journal.entries[digest]["attempts"] == 1
        assert journal.skipped_lines == 0
        assert journal.stale_payloads == 0


def test_non_ok_entries_do_not_resume(tmp_path, tiny_result):
    config, _ = tiny_result
    digest = config_digest(config)
    path = str(tmp_path / "j.jsonl")
    with SweepJournal.create(path, n_points=1) as journal:
        journal.record(RunOutcome(0, digest, "failed", 3, 1.0,
                                  error="boom"))
    with SweepJournal.resume(path) as journal:
        assert journal.completed(digest) is None
        # Never completed is not stale: nothing readable was lost.
        assert journal.completed("not-in-the-journal") is None
        assert journal.stale_payloads == 0


def test_latest_entry_wins(tmp_path, tiny_result):
    config, result = tiny_result
    digest = config_digest(config)
    path = str(tmp_path / "j.jsonl")
    with SweepJournal.create(path, n_points=1) as journal:
        journal.record(RunOutcome(0, digest, "crashed", 1, 0.1,
                                  error="killed"))
        journal.record(RunOutcome(0, digest, "ok", 2, 0.6, result=result))
    with SweepJournal.resume(path) as journal:
        assert journal.completed(digest) is not None


def test_torn_final_line_is_skipped_not_fatal(tmp_path, tiny_result):
    config, result = tiny_result
    digest = config_digest(config)
    path = str(tmp_path / "j.jsonl")
    with SweepJournal.create(path, n_points=2) as journal:
        journal.record(RunOutcome(0, digest, "ok", 1, 0.5, result=result))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"digest": "abc", "status": "ok", "payl')  # torn write
    with SweepJournal.resume(path) as journal:
        assert journal.skipped_lines == 1
        assert journal.completed(digest) is not None


def test_corrupt_payload_forces_rerun(tmp_path, tiny_result):
    config, result = tiny_result
    digest = config_digest(config)
    path = str(tmp_path / "j.jsonl")
    with SweepJournal.create(path, n_points=1) as journal:
        journal.record(RunOutcome(0, digest, "ok", 1, 0.5, result=result))
    # Corrupt the recorded payload in place.
    lines = open(path).read().splitlines()
    entry = json.loads(lines[1])
    entry["payload"] = "definitely-not-base64-pickle!"
    lines[1] = json.dumps(entry)
    open(path, "w").write("\n".join(lines) + "\n")
    with SweepJournal.resume(path) as journal:
        assert journal.completed(digest) is None
        assert journal.stale_payloads == 1


def test_digest_mismatch_forces_rerun(tmp_path, tiny_result):
    config, result = tiny_result
    digest = config_digest(config)
    path = str(tmp_path / "j.jsonl")
    with SweepJournal.create(path, n_points=1) as journal:
        journal.record(RunOutcome(0, digest, "ok", 1, 0.5, result=result))
    lines = open(path).read().splitlines()
    entry = json.loads(lines[1])
    entry["run_digest"] = "0" * 64  # payload no longer matches
    lines[1] = json.dumps(entry)
    open(path, "w").write("\n".join(lines) + "\n")
    with SweepJournal.resume(path) as journal:
        assert journal.completed(digest) is None
        assert journal.stale_payloads == 1


def test_payload_of_another_layout_counts_as_stale(tmp_path, tiny_result):
    """A payload that unpickles into something this code cannot digest
    (what a journal written before a layout change holds)."""
    config, result = tiny_result
    digest = config_digest(config)
    path = str(tmp_path / "j.jsonl")
    with SweepJournal.create(path, n_points=1) as journal:
        journal.record(RunOutcome(0, digest, "ok", 1, 0.5, result=result))
    lines = open(path).read().splitlines()
    entry = json.loads(lines[1])
    entry["payload"] = base64.b64encode(
        pickle.dumps({"not": "a RunResult"})).decode()
    lines[1] = json.dumps(entry)
    open(path, "w").write("\n".join(lines) + "\n")
    with SweepJournal.resume(path) as journal:
        assert journal.completed(digest) is None
        assert journal.stale_payloads == 1


def test_resume_rejects_non_journal_files(tmp_path):
    not_journal = tmp_path / "random.jsonl"
    not_journal.write_text('{"ev": "trace.meta"}\n')
    with pytest.raises(JournalError):
        SweepJournal.resume(str(not_journal))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(JournalError):
        SweepJournal.resume(str(empty))


def test_resumed_journal_appends(tmp_path, tiny_result):
    config, result = tiny_result
    digest = config_digest(config)
    path = str(tmp_path / "j.jsonl")
    with SweepJournal.create(path, n_points=2) as journal:
        journal.record(RunOutcome(0, digest, "ok", 1, 0.5, result=result))
    with SweepJournal.resume(path) as journal:
        journal.record(RunOutcome(1, "other-digest", "failed", 2, 0.3,
                                  error="boom"))
    assert len(open(path).read().splitlines()) == 3  # header + 2 entries


@pytest.mark.parametrize("status", RUN_STATUSES)
def test_line_to_outcome_to_line_is_the_identity(tiny_result, status):
    config, result = tiny_result
    outcome = RunOutcome(3, config_digest(config), status, attempts=2,
                         wall_s=1.25, config=config)
    if status == "ok":
        outcome.result = result
    else:
        outcome.error = "boom"
    line = json.loads(json.dumps(outcome.line()))
    assert line["seed"] == 1 and line["system"] == "vertigo"
    assert RunOutcome.from_line(line).line() == line


def test_line_with_retired_stall_keys_still_resumes(tmp_path, tiny_result):
    """Journals from before the stall watchdog was removed carry
    ``stalled``, ``last_sim_ns`` and ``last_events``: their points
    resume, and the keys are dropped."""
    config, result = tiny_result
    digest = config_digest(config)
    path = tmp_path / "j.jsonl"
    with SweepJournal.create(str(path), n_points=1) as journal:
        journal.record(RunOutcome(0, digest, "ok", 1, 0.5, result=result))
    header, line = [json.loads(text) for text in
                    path.read_text().splitlines()]
    line.update(stalled=False, last_sim_ns=None, last_events=None)
    path.write_text("".join(json.dumps(record) + "\n"
                            for record in (header, line)))
    report = run_supervised([config], jobs=1, resume=str(path))
    assert report.manifest()["resumed"] == 1
    assert report.outcomes[0].run_digest == line["run_digest"]
    assert "stalled" not in report.outcomes[0].line()


@pytest.mark.parametrize("opener, name, content", [
    ("resume", "missing.jsonl", None),
    ("resume", "j.jsonl", "[1,2]\n"),
    ("resume", "j.jsonl", "{torn\nnot json either\n"),
    ("create", "no-such-dir/j.jsonl", None),
    ("create", "j.jsonl", '{"journal":"repro.sweep","version":1}\n'),
], ids=["missing", "non-object-header", "unparsable", "missing-dir",
        "non-empty"])
def test_unusable_journal_files_are_journal_errors(tmp_path, opener, name,
                                                   content):
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    with pytest.raises(JournalError) as error:
        if opener == "resume":
            SweepJournal.resume(str(path))
        else:
            SweepJournal.create(str(path), n_points=1)
    assert "is empty" not in str(error.value)
    if content is not None:
        assert path.read_text() == content  # never truncated


@pytest.mark.parametrize("bad_line", [
    "[1,2]", '"a string"', '{"no": "digest"}', '{"digest": "ab'])
def test_entry_lines_that_are_not_records_are_skipped_and_counted(
        tmp_path, tiny_result, bad_line):
    config, result = tiny_result
    digest = config_digest(config)
    path = str(tmp_path / "j.jsonl")
    with SweepJournal.create(path, n_points=1) as journal:
        journal.record(RunOutcome(0, digest, "ok", 1, 0.5, result=result))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(bad_line + "\n")
    with SweepJournal.resume(path) as journal:
        assert journal.skipped_lines == 1
        assert journal.completed(digest) is not None
