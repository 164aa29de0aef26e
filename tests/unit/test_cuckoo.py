"""Cuckoo filter."""

import pytest

from repro.core import cuckoo
from repro.core.cuckoo import CuckooFilter


def test_insert_then_contains():
    filt = CuckooFilter(capacity=64)
    assert filt.insert(12345)
    assert filt.contains(12345)
    assert 12345 in filt


def test_absent_items_usually_not_contained():
    filt = CuckooFilter(capacity=1024, seed=1)
    for item in range(100):
        filt.insert(item)
    false_positives = sum(filt.contains(item)
                          for item in range(10_000, 11_000))
    assert false_positives < 20  # 16-bit fingerprints -> ~0.05% expected


def test_delete_removes_membership():
    filt = CuckooFilter(capacity=64)
    filt.insert(42)
    assert filt.delete(42)
    assert not filt.contains(42)
    assert len(filt) == 0


def test_delete_absent_returns_false():
    filt = CuckooFilter(capacity=64)
    assert not filt.delete(7)


def test_no_false_negatives_under_load():
    filt = CuckooFilter(capacity=2048, seed=3)
    inserted = []
    for item in range(1500):  # ~73% load factor
        if filt.insert(item):
            inserted.append(item)
    assert len(inserted) == 1500
    missing = [item for item in inserted if not filt.contains(item)]
    assert missing == []


def test_insert_fails_gracefully_when_full(monkeypatch):
    monkeypatch.setattr(cuckoo, "BUCKET_SIZE", 2)
    filt = CuckooFilter(capacity=8)
    results = [filt.insert(item) for item in range(100)]
    assert not all(results)          # eventually refuses
    assert any(results)              # but accepted plenty first
    # Every reported-inserted item is still findable.
    for item, accepted in enumerate(results):
        if accepted:
            assert filt.contains(item)


def test_duplicate_inserts_take_space():
    filt = CuckooFilter(capacity=64)
    filt.insert(5)
    filt.insert(5)
    assert len(filt) == 2
    filt.delete(5)
    assert filt.contains(5)  # one copy remains
    filt.delete(5)
    assert not filt.contains(5)


def test_load_factor():
    filt = CuckooFilter(capacity=64)
    assert filt.load_factor() == 0.0
    filt.insert(1)
    assert 0 < filt.load_factor() <= 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        CuckooFilter(capacity=cuckoo.BUCKET_SIZE - 1)


def test_seeds_give_different_layouts():
    # Same members, different seeds: the false positives differ.
    probes = range(10_000, 110_000)
    hits = []
    for seed in (1, 2):
        filt = CuckooFilter(capacity=1024, seed=seed)
        for item in range(700):
            filt.insert(item)
        hits.append({item for item in probes if filt.contains(item)})
    assert hits[0] and hits[1] and hits[0] != hits[1]


def test_overflow_accounting_stays_honest():
    # Regression: a refused insert used to leave its fingerprint in a
    # bucket and park the victim in an unbounded stash without counting
    # either, so deleting everything drove ``size`` negative.
    filt = CuckooFilter(capacity=16, seed=3)
    slots = 16 + cuckoo.BUCKET_SIZE  # buckets plus the bounded stash
    accepted = []
    for item in range(40):
        before = len(filt)
        stored = filt.insert(item)
        assert len(filt) == before + stored
        assert len(filt) == sum(map(len, filt._buckets.values())) \
            + len(filt._stash)
        if stored:
            assert filt.contains(item)
            accepted.append(item)
    assert 16 <= len(accepted) == len(filt) <= slots
    assert all(filt.contains(item) for item in accepted)
    assert 0 < filt.load_factor() <= slots / 16
    for item in range(40):
        filt.delete(item)
        assert len(filt) >= 0
    assert len(filt) == 0 and filt.load_factor() == 0.0
    assert not any(filt._buckets.values()) and not filt._stash


def test_insert_if_absent_stores_only_unseen_items():
    filt = CuckooFilter(capacity=64)
    assert filt.insert_if_absent(7)
    assert not filt.insert_if_absent(7)
    assert len(filt) == 1
    assert filt.delete(7) and not filt.contains(7)
    assert filt.insert_if_absent(7)


def test_one_hash_per_operation(monkeypatch):
    from repro.core import cuckoo

    filt = CuckooFilter(capacity=64)
    calls = []
    real = cuckoo._hash64
    monkeypatch.setattr(cuckoo, "_hash64",
                        lambda value: calls.append(value) or real(value))
    for operation in (filt.insert, filt.contains, filt.insert_if_absent,
                      filt.delete, filt.delete, filt.contains):
        calls.clear()
        operation(12345)
        assert len(calls) == 1, operation.__name__
