"""Property tests: RNG streams survive checkpoint state capture.

A checkpoint pickles every named ``random.Random`` stream by value (they
ride in ``RngRegistry._streams``); resumed runs must see *exactly* the draw sequence the uninterrupted run would
have seen.  These tests assert the underlying guarantee for every
declared ``RNG_STREAMS`` family in the codebase: capturing a stream's
state mid-run (``getstate`` or pickling, the checkpoint path) and
restoring it reproduces an identical draw sequence, across seeds.
"""

import importlib
import pickle
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.sim.rng import RngRegistry


def _declared_families():
    """Every name in every module-level RNG_STREAMS declaration."""
    families = set()
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # CLI entry points run argparse at import
        try:
            module = importlib.import_module(info.name)
        except BaseException:  # optional deps, guarded entry points
            continue
        for name in getattr(module, "RNG_STREAMS", ()):
            families.add(name)
    return sorted(families)


FAMILIES = _declared_families()


def _stream_name(family):
    """A concrete stream name: prefix families get a sample suffix."""
    return family + "leaf0-spine1" if family.endswith(":") else family


def test_families_discovered():
    # The three known declaration sites must all be visible; if this
    # shrinks, the walk above broke and the property tests below are
    # vacuous.
    assert "background" in FAMILIES
    assert any(f.startswith("policy") for f in FAMILIES)
    assert any(f.startswith("faultloss") for f in FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2 ** 31), warmup=st.integers(0, 200),
       draws=st.integers(1, 200))
@settings(max_examples=20, deadline=None)
def test_getstate_setstate_reproduces_draws(family, seed, warmup, draws):
    registry = RngRegistry(seed)
    stream = registry.stream(_stream_name(family))
    for _ in range(warmup):
        stream.random()
    state = stream.getstate()
    expected = [stream.random() for _ in range(draws)]
    stream.setstate(state)
    assert [stream.random() for _ in range(draws)] == expected


@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2 ** 31), warmup=st.integers(0, 100),
       draws=st.integers(1, 100))
@settings(max_examples=10, deadline=None)
def test_pickle_roundtrip_reproduces_draws(family, seed, warmup, draws):
    """The actual checkpoint path: streams pickle inside the registry."""
    registry = RngRegistry(seed)
    stream = registry.stream(_stream_name(family))
    for _ in range(warmup):
        stream.random()
    restored = pickle.loads(pickle.dumps(registry))
    expected = [stream.random() for _ in range(draws)]
    copy = restored.stream(_stream_name(family))
    assert [copy.random() for _ in range(draws)] == expected
    # Restored registries keep handing out the *same object* for the
    # name, so component-held references stay aliased.
    assert restored.stream(_stream_name(family)) is copy


@given(seed=st.integers(0, 2 ** 31))
@settings(max_examples=10, deadline=None)
def test_snapshot_covers_every_live_stream(seed):
    """A pickled registry must capture all streams created so far."""
    registry = RngRegistry(seed)
    for family in FAMILIES:
        registry.stream(_stream_name(family))
    probe = {name: rng.getstate()
             for name, rng in registry._streams.items()}
    blob = pickle.dumps(registry)
    # Mixed draws, then restore: every stream rewinds together.
    for rng in registry._streams.values():
        rng.random()
    restored = pickle.loads(blob)
    assert restored.seed == seed
    assert set(restored._streams) == {_stream_name(f) for f in FAMILIES}
    for name, rng in restored._streams.items():
        assert rng.getstate() == probe[name]
