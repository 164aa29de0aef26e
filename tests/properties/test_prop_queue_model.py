"""Property-based tests: the queues against a small reference model.

``push``/``pop`` carry their byte, counter, pool and ECN accounting
inline; the model below states the same rules once, in the obvious
way, and every operation of a random sequence must leave the real queue
and the model in the same state.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.flowinfo import FlowInfo
from repro.net.queues import (
    ClassLaneQueue,
    DropTailQueue,
    RankedQueue,
    SharedBufferPool,
)
from tests.helpers import mk_data

CAPACITY = 3_000
ECN_THRESHOLD = 1_000
POOL_BYTES = 5_000


class ModelQueue:
    """One bounded queue: a list of packets plus the accounting rules."""

    def __init__(self, ranked, ecn, pool):
        self.ranked, self.ecn, self.pool = ranked, ecn, pool
        self.items = []       # packets in arrival order
        self.enqueued = self.dequeued = self.ecn_marked = self.max_bytes = 0

    @property
    def bytes(self):
        return sum(packet.wire_bytes for packet in self.items)

    def fits(self, packet):
        if self.pool is not None:
            return (self.pool["used"] + packet.wire_bytes <= POOL_BYTES
                    and self.bytes + packet.wire_bytes
                    <= POOL_BYTES - self.pool["used"])  # DT, alpha = 1
        return self.bytes + packet.wire_bytes <= CAPACITY

    def push(self, packet):
        """Returns whether the queue must CE-mark ``packet``."""
        marked = self.ecn and packet.ecn_capable \
            and self.bytes >= ECN_THRESHOLD
        self.ecn_marked += marked
        self.items.append(packet)
        if self.pool is not None:
            self.pool["used"] += packet.wire_bytes
        self.enqueued += 1
        self.max_bytes = max(self.max_bytes, self.bytes)
        return marked

    def _take(self, index):
        packet = self.items.pop(index)
        if self.pool is not None:
            self.pool["used"] -= packet.wire_bytes
        self.dequeued += 1
        return packet

    def pop(self):
        if not self.ranked:
            return self._take(0)
        # min() keeps the earliest arrival among equal ranks.
        return self._take(min(range(len(self.items)),
                              key=lambda i: self.items[i].rank()))

    def pop_tail(self):
        ranks = [packet.rank() for packet in self.items]
        # Largest rank; among equals, the latest arrival.
        return self._take(max(range(len(ranks)),
                              key=lambda i: (ranks[i], i)))


def _build(flavour, ecn, pooled):
    """(real queue, its model lanes, real pool, model pool)."""
    pool = SharedBufferPool(POOL_BYTES) if pooled else None
    model_pool = {"used": 0} if pooled else None
    threshold = ECN_THRESHOLD if ecn else None
    cls = RankedQueue if flavour == "ranked" else DropTailQueue
    n_lanes = 2 if flavour == "lanes" else 1
    lanes = [cls(CAPACITY, threshold, pool) for _ in range(n_lanes)]
    models = [ModelQueue(flavour == "ranked", ecn, model_pool)
              for _ in range(n_lanes)]
    real = ClassLaneQueue(lanes) if flavour == "lanes" else lanes[0]
    return real, models, pool, model_pool


def _same_state(real, models, pool, model_pool):
    lanes = real.lanes if isinstance(real, ClassLaneQueue) else [real]
    for lane, model in zip(lanes, models):
        assert lane.bytes == model.bytes
        stats = lane.stats
        assert (stats.enqueued, stats.dequeued, stats.ecn_marked,
                stats.max_bytes) == (model.enqueued, model.dequeued,
                                     model.ecn_marked, model.max_bytes)
        assert sorted(p.uid for p in lane.packets()) \
            == sorted(p.uid for p in model.items)
    assert real.bytes == sum(model.bytes for model in models)
    assert bool(real) == any(model.items for model in models)
    if pool is not None:
        assert pool.used_bytes == model_pool["used"]


operations = st.lists(
    st.tuples(st.sampled_from(["push", "push", "pop", "pop_tail",
                               "pop_unpaused"]),
              # Wire sizes 100/500/1000/1500: occupancy lands exactly on
              # the ECN threshold and the capacity, where >= and > differ.
              st.sampled_from([60, 460, 960, 1460]),
              st.integers(0, 5),           # rank (few values: ties happen)
              st.integers(0, 1),           # priority class
              st.booleans(),               # ecn capable
              st.integers(0, 3)),          # paused mask
    max_size=80)


@pytest.mark.parametrize("pooled", [False, True], ids=["static", "pool"])
@pytest.mark.parametrize("ecn", [False, True], ids=["noecn", "ecn"])
@pytest.mark.parametrize("flavour", ["droptail", "ranked", "lanes"])
@given(operations)
def test_queue_matches_the_reference_model(flavour, ecn, pooled, ops):
    real, models, pool, model_pool = _build(flavour, ecn, pooled)
    for op, payload, rank, pclass, capable, mask in ops:
        if op == "push":
            packet = mk_data(payload=payload, ecn_capable=capable)
            packet.flowinfo = FlowInfo(rfs=rank)
            packet.pclass = pclass if flavour == "lanes" else 0
            model = models[packet.pclass]
            fits = model.fits(packet)
            assert real.fits(packet) == fits
            if fits:
                marked = model.push(packet)
                real.push(packet, 0)
                assert packet.ecn_ce == marked
            else:
                before = (real.bytes, [p.uid for p in real.packets()])
                with pytest.raises(OverflowError):
                    real.push(packet, 0)
                assert before == (real.bytes,
                                  [p.uid for p in real.packets()])
                assert not packet.ecn_ce
        elif op == "pop":
            model = next((m for m in models if m.items), None)
            if model is not None:
                assert real.pop(0) is model.pop()
        elif op == "pop_tail":
            if flavour == "ranked" and models[0].items:
                assert real.pop_tail(0) is models[0].pop_tail()
        elif any(model.items for model in models):
            # A held class holds a laneless queue whole; lanes serve the
            # first non-empty lane whose class is not held.
            held = (lambda i: mask) if flavour != "lanes" \
                else (lambda i: mask >> i & 1)
            model = next((m for i, m in enumerate(models)
                          if m.items and not held(i)), None)
            got = real.pop_unpaused(mask, 0)
            assert got is (model.pop() if model is not None else None)
        _same_state(real, models, pool, model_pool)
