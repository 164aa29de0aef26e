"""PIEO-style rank queue."""

import pytest

from repro.core.scheduler import RankQueue


def test_pop_min_orders_by_rank():
    queue = RankQueue()
    for rank in (30, 10, 20):
        queue.push(rank, f"r{rank}")
    assert [queue.pop_min()[0] for _ in range(3)] == [10, 20, 30]


def test_pop_max_orders_by_rank():
    queue = RankQueue()
    for rank in (30, 10, 20):
        queue.push(rank, f"r{rank}")
    assert [queue.pop_max()[0] for _ in range(3)] == [30, 20, 10]


def test_mixed_min_max_pops():
    queue = RankQueue()
    for rank in range(10):
        queue.push(rank, rank)
    assert queue.pop_min() == (0, 0)
    assert queue.pop_max() == (9, 9)
    assert queue.pop_max() == (8, 8)
    assert queue.pop_min() == (1, 1)
    assert len(queue) == 6


def test_equal_ranks_min_end_is_fifo():
    queue = RankQueue()
    queue.push(5, "first")
    queue.push(5, "second")
    assert queue.pop_min()[1] == "first"
    assert queue.pop_min()[1] == "second"


def test_equal_ranks_max_end_evicts_newest():
    # A displaced packet should be the most recent arrival among equals,
    # keeping the FIFO order of the survivors.
    queue = RankQueue()
    queue.push(5, "old")
    queue.push(5, "new")
    assert queue.pop_max()[1] == "new"


def test_peek_does_not_remove():
    queue = RankQueue()
    queue.push(1, "a")
    queue.push(2, "b")
    assert queue.peek_min() == (1, "a")
    assert queue.peek_max() == (2, "b")
    assert len(queue) == 2


def test_peek_empty_returns_none():
    queue = RankQueue()
    assert queue.peek_min() is None
    assert queue.peek_max() is None


def test_pop_empty_raises():
    queue = RankQueue()
    with pytest.raises(IndexError):
        queue.pop_min()
    with pytest.raises(IndexError):
        queue.pop_max()


def test_len_and_bool():
    queue = RankQueue()
    assert not queue
    queue.push(1, "x")
    assert queue and len(queue) == 1
    queue.pop_min()
    assert not queue


def test_items_snapshot_sorted():
    queue = RankQueue()
    for rank in (5, 1, 3):
        queue.push(rank, str(rank))
    queue.pop_max()  # drop rank 5
    assert queue.items() == [(1, "1"), (3, "3")]


def test_interleaved_operations_stay_consistent():
    queue = RankQueue()
    import random
    rng = random.Random(0)
    shadow = []
    for step in range(500):
        op = rng.random()
        if op < 0.5 or not shadow:
            rank = rng.randrange(100)
            queue.push(rank, step)
            shadow.append(rank)
        elif op < 0.75:
            rank, _ = queue.pop_min()
            assert rank == min(shadow)
            shadow.remove(rank)
        else:
            rank, _ = queue.pop_max()
            assert rank == max(shadow)
            shadow.remove(rank)
        assert len(queue) == len(shadow)


def _standing_queue(depth):
    queue = RankQueue()
    for step in range(depth):
        queue.push(step % 97, step)
    return queue


def test_history_is_not_pinned():
    # A switch queue that only ever pops min must not retain what it
    # forwarded: memory and checkpoint payloads would otherwise grow
    # linearly with history.
    import pickle

    fresh = _standing_queue(16)
    worn = _standing_queue(16)
    for step in range(16, 10_016):
        worn.push(step % 97, step)
        worn.pop_min()
    assert len(worn) == 16
    assert len(pickle.dumps(worn)) <= 2 * len(pickle.dumps(fresh))


def test_drained_queue_holds_no_items():
    import gc
    import weakref

    class Item:
        pass

    queue = RankQueue()
    refs = []
    for rank in range(50):
        item = Item()
        refs.append(weakref.ref(item))
        queue.push(rank, item)
    del item
    for _ in range(25):
        queue.pop_min()
        queue.pop_max()
    gc.collect()
    assert len(queue) == 0 and queue.items() == []
    assert all(ref() is None for ref in refs)


def test_pop_order_follows_rank_then_arrival():
    # Pop order is a pure function of (rank, arrival): check a long mixed
    # run against a model that re-sorts a plain list on every pop.
    import random
    rng = random.Random(7)
    queue = RankQueue()
    model = []
    for step in range(3_000):
        if rng.random() < 0.6 or not model:
            rank = rng.randrange(50)
            queue.push(rank, step)
            model.append((rank, step))
        elif rng.random() < 0.9:
            expected = min(model)
            assert queue.pop_min() == expected
            model.remove(expected)
        else:
            expected = max(model)
            assert queue.pop_max() == expected
            model.remove(expected)
    assert queue.items() == sorted(model)
