"""Append-only sweep journal: crash-safe checkpoint/resume for sweeps.

One JSON object per line, each flushed and fsynced before the
supervisor moves on, so a crash loses at most the point in flight: a
header ``{"journal": "repro.sweep", "version": 1, "points": N}``, then
one :meth:`RunOutcome.line <repro.runtime.supervisor.RunOutcome.line>`
per terminal outcome.  ``--resume`` matches lines by config digest (so
a resumed sweep may reorder, extend or subset its points), re-verifies
each ``ok`` payload against its run digest and re-runs what it cannot
read under this code (``stale_payloads``); a line that is not a JSON
object — most likely torn by the crash itself — is skipped
(``skipped_lines``).  A file that cannot be opened, has no header, or
already holds data when a fresh journal is asked for is a
:class:`JournalError`.
"""

from __future__ import annotations

import base64
import io
import json
import os
import pickle
from typing import Dict, Optional

from repro.experiments.digest import run_digest
from repro.experiments.runner import RunResult

JOURNAL_MAGIC = "repro.sweep"
JOURNAL_VERSION = 1


class JournalError(ValueError):
    """The journal file cannot be used as asked."""


def encode_result(result: RunResult) -> str:
    """Base64-pickled portable copy of a result (journal payload)."""
    portable = result if result.network is None else result.portable()
    return base64.b64encode(
        pickle.dumps(portable, protocol=pickle.HIGHEST_PROTOCOL)).decode()


def decode_result(payload: str) -> RunResult:
    return pickle.loads(base64.b64decode(payload.encode()))


def _parse(text: str) -> Optional[dict]:
    """One journal line as a JSON object, or None."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


class SweepJournal:
    """Append-only JSONL record of a supervised sweep's completions."""

    def __init__(self, path: str, handle: io.TextIOBase,
                 entries: Optional[Dict[str, dict]] = None,
                 skipped_lines: int = 0) -> None:
        self.path = path
        self._handle = handle
        #: Latest journal line per config digest (all statuses).
        self.entries: Dict[str, dict] = entries or {}
        #: Lines skipped on load: not a JSON object with a digest.
        self.skipped_lines = skipped_lines
        #: ``ok`` entries asked for whose payload could not be decoded,
        #: or no longer hashes to its recorded run digest, under this
        #: code (a journal from before a layout change): each re-runs.
        self.stale_payloads = 0

    # -- constructors ----------------------------------------------------------

    @classmethod
    def create(cls, path: str, n_points: int) -> "SweepJournal":
        """Start a fresh journal; a file that already holds data is
        refused rather than truncated."""
        if os.path.exists(path) and os.path.getsize(path):
            raise JournalError(f"journal {path} already holds data: pass "
                               f"--resume to continue it, or delete it")
        try:
            handle = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise JournalError(f"cannot create journal: {exc}") from exc
        journal = cls(path, handle)
        journal._append({"journal": JOURNAL_MAGIC,
                         "version": JOURNAL_VERSION, "points": n_points})
        return journal

    @classmethod
    def resume(cls, path: str) -> "SweepJournal":
        """Open an existing journal, loading its entries; completions
        append to the same file, so an interrupted resume resumes too."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = [_parse(text) for text in handle if text.strip()]
            if not lines:
                raise JournalError(f"{path} is empty (no journal header)")
            header = lines[0] or {}
            if header.get("journal") != JOURNAL_MAGIC:
                raise JournalError(f"{path} is not a repro sweep journal "
                                   f"(no header on its first line)")
            if header.get("version") != JOURNAL_VERSION:
                raise JournalError(f"{path}: unsupported journal version "
                                   f"{header.get('version')!r}")
            handle = open(path, "a", encoding="utf-8")
        except OSError as exc:
            raise JournalError(f"cannot open journal: {exc}") from exc
        # A line that is not an object with a digest is most likely the
        # torn final write of the crash being recovered from: skipped,
        # and its point re-runs.
        kept = [line for line in lines[1:]
                if line and isinstance(line.get("digest"), str)]
        return cls(path, handle, {line["digest"]: line for line in kept},
                   skipped_lines=len(lines) - 1 - len(kept))

    # -- recording -------------------------------------------------------------

    def _append(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:
            # Non-seekable targets (pipes, some filesystems) cannot
            # fsync; flushed-but-unsynced is still best effort.
            return

    def record(self, outcome) -> None:
        """Append one terminal outcome's line, flushed on return."""
        line = outcome.line()
        self._append(line)
        self.entries[outcome.digest] = line

    # -- resume reads ----------------------------------------------------------

    def completed(self, digest: str):
        """The ``ok`` outcome journaled for ``digest``, or None: the
        point re-runs.  A payload that does not decode to its recorded
        run digest under this code counts in :attr:`stale_payloads`."""
        # Deferred: the supervisor module imports this one.
        from repro.runtime.supervisor import RunOutcome

        line = self.entries.get(digest)
        if not line or line.get("status") != "ok" or not line.get("payload"):
            return None
        try:
            outcome = RunOutcome.from_line(line)
            if run_digest(outcome.result) == outcome.run_digest:
                return outcome
        except Exception:  # corrupt or stale payload: re-run the point
            pass
        self.stale_payloads += 1
        return None

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
