"""Atomic checkpoint files with versioned headers and content digests.

A checkpoint file is one JSON header line followed by a pickle payload::

    {"checkpoint": "repro.checkpoint", "version": 3, "code": "...",
     "config": "...", "sim_now_ns": ..., "events_executed": ...,
     "payload_bytes": N, "sha256": "..."}\\n
    <N bytes of pickle>

The payload is a plain pickle of live ``repro`` objects, so it is only
meaningful to the code that wrote it: ``code`` is a SHA-256 over the
``repro`` package's source files (:func:`code_fingerprint`), and a file
whose ``code`` differs from the reading process's is refused before it
is unpickled.  ``version`` names the file format only.

Writes are atomic (tmp + ``os.replace``) and keep one generation of
history: the previous checkpoint survives as ``<path>.prev``, so a
corrupt or torn latest file — wrong magic, truncated payload, digest
mismatch — falls back to the previous epoch instead of losing the run.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import pickle
from typing import Dict, Optional, Tuple

from repro.checkpoint.config import CheckpointError

CHECKPOINT_MAGIC = "repro.checkpoint"
#: The file format (header fields, framing).  Object-layout changes need
#: no bump: the derived ``code`` header field covers them.
CHECKPOINT_VERSION = 3

#: Suffix of the one-generation history file kept beside the latest.
PREVIOUS_SUFFIX = ".prev"

#: Header size guard: a valid header line is well under this.
_MAX_HEADER_BYTES = 64 * 1024


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package's ``.py`` files (relative path
    and bytes, in sorted order).  Computed on first use only — when a
    checkpoint is written or read — then cached for the process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sources = []
    for directory, _subdirs, files in os.walk(root):
        sources.extend(os.path.join(directory, name)
                       for name in files if name.endswith(".py"))
    digest = hashlib.sha256()
    for source in sorted(sources):
        digest.update(os.path.relpath(source, root).encode("utf-8") + b"\0")
        with open(source, "rb") as fh:
            digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def _fsync_write(path: str, blob: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())


def write_checkpoint(path: str, world: object, *, config_digest: str,
                     sim_now_ns: int, events_executed: int
                     ) -> Dict[str, object]:
    """Atomically persist ``world`` to ``path``; returns the header.

    The previous latest (if any) is rotated to ``<path>.prev`` first, so
    a torn write of the new file never costs more than one epoch.
    """
    payload = pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "checkpoint": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "code": code_fingerprint(),
        "config": config_digest,
        "sim_now_ns": sim_now_ns,
        "events_executed": events_executed,
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    _fsync_write(tmp, blob)
    if os.path.exists(path):
        os.replace(path, path + PREVIOUS_SUFFIX)
    os.replace(tmp, path)
    return header


def _read_header(fh: io.BufferedReader, path: str) -> Dict[str, object]:
    line = fh.readline(_MAX_HEADER_BYTES)
    if not line.endswith(b"\n"):
        raise CheckpointError(f"{path}: missing or oversized header line")
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise CheckpointError(f"{path}: unparsable header: {exc}") from None
    if not isinstance(header, dict) \
            or header.get("checkpoint") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a repro checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {header.get('version')!r} "
            f"is not supported (expected {CHECKPOINT_VERSION})")
    if header.get("code") != code_fingerprint():
        raise CheckpointError(
            f"{path}: checkpoint was written by different repro source "
            f"(code {str(header.get('code'))[:12]}…, this tree is "
            f"{code_fingerprint()[:12]}…)")
    return header


def read_checkpoint(path: str, *, expect_config: Optional[str] = None
                    ) -> Tuple[Dict[str, object], object]:
    """Load one checkpoint file, verifying digest and (optionally) config.

    Raises :class:`CheckpointError` on any corruption: bad header, short
    payload, content-digest mismatch, or a config-digest mismatch when
    ``expect_config`` is given.
    """
    try:
        with open(path, "rb") as fh:
            header = _read_header(fh, path)
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if len(payload) != header["payload_bytes"]:
        raise CheckpointError(
            f"{path}: torn payload ({len(payload)} bytes, header promises "
            f"{header['payload_bytes']})")
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise CheckpointError(f"{path}: payload digest mismatch")
    if expect_config is not None and header["config"] != expect_config:
        raise CheckpointError(
            f"{path}: checkpoint belongs to config {header['config'][:12]}…, "
            f"not the requested config {expect_config[:12]}…")
    try:
        world = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(f"{path}: payload unpickling failed: "
                              f"{exc}") from None
    return header, world


def load_latest(path: str, *, expect_config: Optional[str] = None
                ) -> Optional[Tuple[Dict[str, object], object, str]]:
    """Load the newest intact checkpoint at ``path``, else its ``.prev``.

    Returns ``(header, world, used_path)``; ``None`` when neither
    generation exists.  A corrupt/torn latest falls back to the previous
    generation; if both are corrupt, the *latest* error propagates.
    """
    candidates = [path, path + PREVIOUS_SUFFIX]
    first_error: Optional[CheckpointError] = None
    seen_any = False
    for candidate in candidates:
        if not os.path.exists(candidate):
            continue
        seen_any = True
        try:
            header, world = read_checkpoint(candidate,
                                            expect_config=expect_config)
        except CheckpointError as exc:
            if first_error is None:
                first_error = exc
            continue
        return header, world, candidate
    if seen_any and first_error is not None:
        raise first_error
    return None


def discard(path: str) -> None:
    """Remove a checkpoint, its previous generation and a torn write."""
    for victim in (path, path + PREVIOUS_SUFFIX, path + ".tmp"):
        try:
            os.remove(victim)
        except OSError:
            pass

