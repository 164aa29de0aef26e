"""Append-only sweep journal: crash-safe checkpoint/resume for sweeps.

Every terminal outcome of a supervised sweep point is appended to a
JSONL journal and flushed (``flush`` + ``fsync``) before the supervisor
moves on, so an OOM kill, a power cut, or a Ctrl-C can lose at most the
point that was in flight.  ``repro sweep --resume <journal>`` reloads
the journal, skips every point whose config digest already has an ``ok``
entry, and re-runs the rest — producing final results digest-identical
to an uninterrupted sweep (``tests/integration/test_runtime_chaos.py``
enforces this byte for byte).

File format — one JSON object per line:

- header (first line): ``{"journal": "repro.sweep", "version": 1,
  "points": N}``
- completion lines: ``{"digest": <config digest>, "index": i,
  "status": "ok" | "timeout" | "crashed" | "failed" | "aborted",
  "attempts": n, "wall_s": w, "error": msg-or-null,
  "run_digest": <run digest or null>, "payload": <base64 pickle of
  RunResult.portable() for ok entries, else null>}``

Matching is by config digest, not by index, so a resumed sweep may
reorder, extend, or subset the original point list and still reuse every
completed point that is still part of it.  Payloads are verified against
their recorded run digest on load; an entry that fails verification is
ignored and the point re-runs — counted in ``stale_payloads``, so a
journal written by older code is redone loudly rather than silently —
and a line truncated by the crash itself is skipped.
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
    """The journal file is not a repro sweep journal."""


def encode_result(result: RunResult) -> str:
    """Base64-pickled portable copy of a result (journal payload)."""
    portable = result if result.network is None else result.portable()
    return base64.b64encode(
        pickle.dumps(portable, protocol=pickle.HIGHEST_PROTOCOL)).decode()


def decode_result(payload: str) -> RunResult:
    return pickle.loads(base64.b64decode(payload.encode()))


class SweepJournal:
    """Append-only JSONL record of a supervised sweep's completions."""

    def __init__(self, path: str, handle: io.TextIOBase,
                 entries: Optional[Dict[str, dict]] = None) -> None:
        self.path = path
        self._handle = handle
        #: Latest journal entry per config digest (all statuses).
        self.entries: Dict[str, dict] = entries or {}
        #: Lines that could not be parsed on load (e.g. a write truncated
        #: by the crash being recovered from); they are skipped, not fatal.
        self.skipped_lines = 0
        #: ``ok`` entries asked for whose payload could not be decoded,
        #: or no longer hashes to its recorded run digest, under this
        #: code (a journal from before a layout change): each re-runs.
        self.stale_payloads = 0

    # -- constructors ----------------------------------------------------------

    @classmethod
    def create(cls, path: str, n_points: int) -> "SweepJournal":
        """Start a fresh journal (truncates an existing file)."""
        handle = open(path, "w", encoding="utf-8")
        journal = cls(path, handle)
        journal._append({"journal": JOURNAL_MAGIC,
                         "version": JOURNAL_VERSION, "points": n_points})
        return journal

    @classmethod
    def resume(cls, path: str) -> "SweepJournal":
        """Open an existing journal, loading its completed entries.

        New completions append to the same file, so an interrupted
        *resume* can itself be resumed.
        """
        entries: Dict[str, dict] = {}
        skipped = 0
        header_seen = False
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # Most likely the torn final write of the crash we
                    # are recovering from; the point simply re-runs.
                    skipped += 1
                    continue
                if not header_seen:
                    if record.get("journal") != JOURNAL_MAGIC:
                        raise JournalError(
                            f"{path} is not a repro sweep journal "
                            f"(missing header)")
                    if record.get("version") != JOURNAL_VERSION:
                        raise JournalError(
                            f"{path}: unsupported journal version "
                            f"{record.get('version')!r}")
                    header_seen = True
                    continue
                digest = record.get("digest")
                if isinstance(digest, str):
                    entries[digest] = record  # latest entry wins
                else:
                    skipped += 1
        if not header_seen:
            raise JournalError(f"{path} is empty (no journal header)")
        handle = open(path, "a", encoding="utf-8")
        journal = cls(path, handle, entries)
        journal.skipped_lines = skipped
        return journal

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

    def record(self, digest: str, index: int, status: str, attempts: int,
               wall_s: float, error: Optional[str] = None,
               result: Optional[RunResult] = None) -> None:
        """Append one terminal outcome; flushed before returning."""
        entry = {
            "digest": digest,
            "index": index,
            "status": status,
            "attempts": attempts,
            "wall_s": round(wall_s, 6),
            "error": error,
            "run_digest": run_digest(result) if result is not None else None,
            "payload": encode_result(result) if result is not None else None,
            # Checkpoint lineage: {"restored_from_ns", "checkpoints_written",
            # "path"} when the run was checkpointed or restored, else None.
            "checkpoint": getattr(result, "checkpoint", None)
            if result is not None else None,
        }
        self._append(entry)
        self.entries[digest] = entry

    # -- resume reads ----------------------------------------------------------

    def completed_result(self, digest: str) -> Optional[RunResult]:
        """The verified result for ``digest``, or None if it must re-run.

        Only ``ok`` entries count as completed; the decoded payload is
        re-hashed and must match the recorded run digest, so a corrupt
        or stale payload falls back to re-running the point and is
        counted in :attr:`stale_payloads`.
        """
        entry = self.entries.get(digest)
        if not entry or entry.get("status") != "ok":
            return None
        payload = entry.get("payload")
        if not payload:
            return None
        try:
            result = decode_result(payload)
            if run_digest(result) == entry.get("run_digest"):
                return result
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
