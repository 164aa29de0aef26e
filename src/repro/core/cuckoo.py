"""Cuckoo filter (Fan et al., CoNEXT 2014).

Vertigo's marking component uses a cuckoo filter over a CRC of the packet
header to detect re-transmissions in the dataplane (§3.1.2), and the
paper's host prototype uses DPDK cuckoo filters for flow identification
(§4.4).  This is a faithful software implementation: 4-slot buckets,
partial-key cuckoo hashing with fingerprint-derived alternate buckets,
bounded eviction chains, a victim stash bounded to one bucket's worth
of fingerprints, and deletion support.

Every operation hashes its item exactly once (:func:`_hash64`): the low
bits of that one value are the fingerprint, the next bits the first
bucket, and the alternate bucket is the first XOR a multiplicative mix
of the fingerprint — Fan et al.'s partial-key construction, computable
from a stored fingerprint alone.  ``size`` is at all times the number of
fingerprints held (buckets plus stash), and an insert either stores its
fingerprint and returns True or changes nothing and returns False.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

_MAX_KICKS = 500

_MASK64 = (1 << 64) - 1

#: MurmurHash2's multiplier, the fingerprint mix of the reference
#: cuckoo filter.
_ALT_MIX = 0x5BD1E995


def _hash64(value: int) -> int:
    """SplitMix64's finalizer: a bijective 64-bit mix of ``value``."""
    x = (value + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class CuckooFilter:
    """Approximate set membership with deletion.

    ``contains`` may return false positives (rate controlled by the
    fingerprint width) but never false negatives for items whose insert
    returned True and that were not deleted.
    """

    def __init__(self, capacity: int = 4096, bucket_size: int = 4,
                 fingerprint_bits: int = 16, seed: int = 0) -> None:
        if capacity < bucket_size:
            raise ValueError("capacity must be at least one bucket")
        n_buckets = 1
        while n_buckets * bucket_size < capacity:
            n_buckets <<= 1
        self._bucket_mask = n_buckets - 1
        self._bucket_size = bucket_size
        self._fp_bits = fingerprint_bits
        self._fp_mask = (1 << fingerprint_bits) - 1
        self._salt = _hash64(seed)
        # Buckets materialize on first touch: a filter sized for the
        # worst case (tens of thousands of slots per host) would
        # otherwise dominate network build time with empty lists.
        self._buckets: Dict[int, List[int]] = {}
        # Victim stash: (index, fingerprint) pairs displaced by an
        # exhausted eviction chain, so that chain's insert still holds
        # and no earlier item is lost.  It is one more bucket (at most
        # ``bucket_size`` entries; a filter whose stash is full refuses
        # inserts that would need a chain) and empty in any filter that
        # is not close to full.
        self._stash: List[Tuple[int, int]] = []
        self._evict_rng_state = seed or 0x9E3779B9
        self.size = 0

    def _next_rand(self, bound: int) -> int:
        # xorshift64*: deterministic eviction choices without an RNG object.
        x = self._evict_rng_state
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        self._evict_rng_state = x
        return x % bound

    def _store(self, fp: int, i1: int, i2: int) -> bool:
        """Place ``fp`` in one of its two buckets, evicting if needed."""
        buckets = self._buckets
        for index in (i1, i2):
            bucket = buckets.get(index)
            if bucket is None:
                buckets[index] = [fp]
                self.size += 1
                return True
            if len(bucket) < self._bucket_size:
                bucket.append(fp)
                self.size += 1
                return True
        if len(self._stash) >= self._bucket_size:
            return False  # nowhere to park a chain's last victim
        index = (i1, i2)[self._next_rand(2)]
        for _ in range(_MAX_KICKS):
            bucket = buckets[index]
            victim_slot = self._next_rand(len(bucket))
            fp, bucket[victim_slot] = bucket[victim_slot], fp
            index ^= (fp * _ALT_MIX) & self._bucket_mask
            bucket = buckets.get(index)
            if bucket is None:
                buckets[index] = [fp]
                self.size += 1
                return True
            if len(bucket) < self._bucket_size:
                bucket.append(fp)
                self.size += 1
                return True
        # Chain exhausted: the new fingerprint sits in a bucket and the
        # last displaced one is parked, so everything inserted so far —
        # this item included — stays findable.
        self._stash.append((index, fp))
        self.size += 1
        return True

    # -- operations --------------------------------------------------------

    def insert(self, item: int) -> bool:
        """Store one copy of ``item``; False (and no change) if full."""
        h = _hash64(item ^ self._salt)
        fp = (h & self._fp_mask) or 1  # fingerprint 0 is reserved
        i1 = (h >> self._fp_bits) & self._bucket_mask
        return self._store(fp, i1,
                           i1 ^ ((fp * _ALT_MIX) & self._bucket_mask))

    def insert_if_absent(self, item: int) -> bool:
        """One probe: store ``item`` unless a matching fingerprint is held.

        True means the item was absent and is stored now.  False means
        nothing was stored — a matching fingerprint was already there
        (the item, or a false positive) or the filter is full.
        """
        h = _hash64(item ^ self._salt)
        fp = (h & self._fp_mask) or 1
        i1 = (h >> self._fp_bits) & self._bucket_mask
        i2 = i1 ^ ((fp * _ALT_MIX) & self._bucket_mask)
        buckets = self._buckets
        if fp in buckets.get(i1, ()) or fp in buckets.get(i2, ()):
            return False
        if self._stash and any(f == fp and idx in (i1, i2)
                               for idx, f in self._stash):
            return False
        return self._store(fp, i1, i2)

    def contains(self, item: int) -> bool:
        h = _hash64(item ^ self._salt)
        fp = (h & self._fp_mask) or 1
        i1 = (h >> self._fp_bits) & self._bucket_mask
        i2 = i1 ^ ((fp * _ALT_MIX) & self._bucket_mask)
        buckets = self._buckets
        if fp in buckets.get(i1, ()) or fp in buckets.get(i2, ()):
            return True
        return bool(self._stash) and any(
            f == fp and idx in (i1, i2) for idx, f in self._stash)

    def delete(self, item: int) -> bool:
        """Remove one copy of ``item``; returns False if absent."""
        h = _hash64(item ^ self._salt)
        fp = (h & self._fp_mask) or 1
        i1 = (h >> self._fp_bits) & self._bucket_mask
        i2 = i1 ^ ((fp * _ALT_MIX) & self._bucket_mask)
        for index in (i1, i2):
            bucket = self._buckets.get(index)
            if bucket and fp in bucket:
                bucket.remove(fp)
                self.size -= 1
                return True
        for pos, (idx, f) in enumerate(self._stash):
            if f == fp and idx in (i1, i2):
                del self._stash[pos]
                self.size -= 1
                return True
        return False

    def load_factor(self) -> float:
        return self.size / ((self._bucket_mask + 1) * self._bucket_size)

    def __contains__(self, item: int) -> bool:
        return self.contains(item)

    def __len__(self) -> int:
        return self.size
