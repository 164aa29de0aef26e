"""Unit tests: checkpoint store format, atomicity, and config surface."""

import json
import math
import os
import pickle
import shutil
import subprocess
import sys

import pytest

from repro.checkpoint.config import CheckpointConfig, CheckpointError
from repro.checkpoint.store import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    PREVIOUS_SUFFIX,
    code_fingerprint,
    discard,
    load_latest,
    read_checkpoint,
    write_checkpoint,
)
from tests.helpers import rewrite_checkpoint_header


def _write(path, world, sim_now_ns=1_000, events=42, config="cfg" * 21):
    return write_checkpoint(str(path), world, config_digest=config,
                            sim_now_ns=sim_now_ns, events_executed=events)


# -- file format ---------------------------------------------------------------

def test_header_line_then_payload(tmp_path):
    path = tmp_path / "run.ckpt"
    header = _write(path, {"state": [1, 2, 3]})
    raw = path.read_bytes()
    line, _, payload = raw.partition(b"\n")
    parsed = json.loads(line)
    assert parsed == header
    assert parsed["checkpoint"] == CHECKPOINT_MAGIC
    assert parsed["version"] == CHECKPOINT_VERSION
    assert parsed["code"] == code_fingerprint()
    assert parsed["payload_bytes"] == len(payload)
    assert pickle.loads(payload) == {"state": [1, 2, 3]}


def test_read_checkpoint_roundtrip_and_config_check(tmp_path):
    path = tmp_path / "run.ckpt"
    _write(path, ["world"], sim_now_ns=7, events=9, config="a" * 64)
    header, world = read_checkpoint(str(path), expect_config="a" * 64)
    assert world == ["world"]
    assert header["sim_now_ns"] == 7
    assert header["events_executed"] == 9
    with pytest.raises(CheckpointError, match="belongs to config"):
        read_checkpoint(str(path), expect_config="b" * 64)


_UNPICKLED = []


def _trip():
    _UNPICKLED.append("loaded")


class _Tripwire:
    """Records (in ``_UNPICKLED``) that its pickle was loaded."""

    def __reduce__(self):
        return (_trip, ())


# version 2 without a ``code`` field is the format before the fingerprint.
@pytest.mark.parametrize("changes,match", [
    ({"version": CHECKPOINT_VERSION + 1}, "version"),
    ({"version": 2, "code": None}, "version 2"),
    ({"code": "0" * 64}, "different repro source"),
    ({"code": None}, "different repro source"),
])
def test_foreign_version_or_code_refused_before_unpickling(tmp_path, changes,
                                                           match):
    path = tmp_path / "run.ckpt"
    _write(path, _Tripwire())
    del _UNPICKLED[:]
    read_checkpoint(str(path))
    assert _UNPICKLED == ["loaded"]      # the tripwire works
    del _UNPICKLED[:]
    rewrite_checkpoint_header(path, **changes)
    with pytest.raises(CheckpointError, match=match) as refusal:
        read_checkpoint(str(path))
    assert "\n" not in str(refusal.value)
    assert _UNPICKLED == []


def _fingerprint_of_tree(src_root):
    """``code_fingerprint()`` as a fresh interpreter on ``src_root`` sees it."""
    out = subprocess.run(
        [sys.executable, "-c", "from repro.checkpoint.store import "
         "code_fingerprint; print(code_fingerprint())"],
        env={**os.environ, "PYTHONPATH": str(src_root)}, check=True,
        capture_output=True, text=True, timeout=60)
    return out.stdout.strip()


def test_code_fingerprint_follows_the_package_source(tmp_path):
    import repro

    shutil.copytree(os.path.dirname(repro.__file__), tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # An identical copy elsewhere agrees (content, not location) ...
    assert _fingerprint_of_tree(tmp_path) == code_fingerprint()
    # ... and an edit to any module of the package changes it.
    with open(tmp_path / "repro" / "net" / "link.py", "a") as fh:
        fh.write("# edited\n")
    assert _fingerprint_of_tree(tmp_path) != code_fingerprint()


def test_code_mismatch_falls_through_prev_to_the_same_error(tmp_path):
    path = tmp_path / "run.ckpt"
    _write(path, "epoch1")
    _write(path, "epoch2")
    previous = tmp_path / ("run.ckpt" + PREVIOUS_SUFFIX)
    rewrite_checkpoint_header(path, code="0" * 64)
    # Only the latest is foreign: the previous generation still loads.
    assert load_latest(str(path))[1] == "epoch1"
    rewrite_checkpoint_header(previous, code="0" * 64)
    with pytest.raises(CheckpointError, match="different repro source"):
        load_latest(str(path))


# -- rotation and corruption fallback ------------------------------------------

def test_write_rotates_previous_generation(tmp_path):
    path = tmp_path / "run.ckpt"
    _write(path, "epoch1", sim_now_ns=1)
    _write(path, "epoch2", sim_now_ns=2)
    assert os.path.exists(str(path) + PREVIOUS_SUFFIX)
    header, world, used = load_latest(str(path))
    assert world == "epoch2" and used == str(path)
    prev_header, prev_world = read_checkpoint(str(path) + PREVIOUS_SUFFIX)
    assert prev_world == "epoch1"


@pytest.mark.parametrize("corruption", ["truncate", "flip", "garbage"])
def test_corrupt_latest_falls_back_to_previous(tmp_path, corruption):
    path = tmp_path / "run.ckpt"
    _write(path, "epoch1", sim_now_ns=1)
    _write(path, "epoch2", sim_now_ns=2)
    raw = path.read_bytes()
    if corruption == "truncate":
        path.write_bytes(raw[:len(raw) // 2])
    elif corruption == "flip":
        path.write_bytes(raw[:-3] + bytes([raw[-3] ^ 0xFF]) + raw[-2:])
    else:
        path.write_bytes(b"not a checkpoint at all\n")
    header, world, used = load_latest(str(path))
    assert world == "epoch1"
    assert used == str(path) + PREVIOUS_SUFFIX


def test_both_generations_corrupt_raises_latest_error(tmp_path):
    path = tmp_path / "run.ckpt"
    _write(path, "epoch1")
    _write(path, "epoch2")
    path.write_bytes(b"garbage\n")
    (tmp_path / ("run.ckpt" + PREVIOUS_SUFFIX)).write_bytes(b"junk\n")
    with pytest.raises(CheckpointError):
        load_latest(str(path))


def test_load_latest_none_when_absent(tmp_path):
    assert load_latest(str(tmp_path / "nope.ckpt")) is None


def test_discard_removes_all_artifacts(tmp_path):
    path = tmp_path / "run.ckpt"
    _write(path, "epoch1")
    _write(path, "epoch2")
    discard(str(path))
    assert list(tmp_path.iterdir()) == []


# -- CheckpointConfig ----------------------------------------------------------

def test_checkpoint_config_validation():
    with pytest.raises(ValueError):
        CheckpointConfig(every_ns=0)
    with pytest.raises(ValueError):
        CheckpointConfig.every_ms(0)
    for ms in (math.nan, math.inf):  # inf used to raise OverflowError
        with pytest.raises(ValueError, match="finite"):
            CheckpointConfig.every_ms(ms)


def test_checkpoint_config_resolve_path():
    managed = CheckpointConfig(every_ns=1, directory="ckpts")
    assert managed.resolve_path("d" * 64) == os.path.join("ckpts",
                                                          "d" * 16 + ".ckpt")
    default = CheckpointConfig.every_ms(5)
    assert default.every_ns == 5_000_000
    assert ".repro-checkpoints" in default.resolve_path("e" * 64)


def test_checkpoint_config_stays_out_of_config_digest():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.digest import config_digest
    plain = ExperimentConfig.bench_profile(seed=3)
    ticked = ExperimentConfig.bench_profile(seed=3)
    ticked.checkpoint = CheckpointConfig.every_ms(5)
    assert config_digest(plain) == config_digest(ticked)
