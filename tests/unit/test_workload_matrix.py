"""Endpoint picks: the three uniform draws replay the legacy RNG calls."""

import random

import pytest

from repro.workload.matrix import pick_dst, pick_servers, pick_src


# -- bit-for-bit legacy equivalence ------------------------------------------

def test_uniform_pick_src_matches_legacy_draws():
    a, b = random.Random(7), random.Random(7)
    for _ in range(200):
        assert pick_src(a, 16) == b.randrange(16)


def test_uniform_pick_dst_matches_legacy_draws():
    a, b = random.Random(8), random.Random(8)
    for src in list(range(16)) * 10:
        dst = pick_dst(a, 16, src)
        legacy = b.randrange(15)
        legacy = legacy + 1 if legacy >= src else legacy
        assert dst == legacy and dst != src


def test_uniform_pick_servers_matches_legacy_draws():
    a, b = random.Random(9), random.Random(9)
    for client in range(16):
        servers = pick_servers(a, 16, client, 5)
        pool = list(range(16))
        pool.remove(client)
        assert servers == b.sample(pool, 5)


# -- invariants ----------------------------------------------------------------

# ``skew`` is a node distribution given by its three picks; uniform is
# the only one.
@pytest.mark.parametrize("skew", [(pick_src, pick_dst, pick_servers)])
def test_picks_in_range_and_distinct(skew):
    src_of, dst_of, servers_of = skew
    rng = random.Random(1)
    for _ in range(300):
        src = src_of(rng, 16)
        dst = dst_of(rng, 16, src)
        assert 0 <= src < 16 and 0 <= dst < 16 and src != dst
    for client in range(16):
        servers = servers_of(rng, 16, client, 6)
        assert len(servers) == len(set(servers)) == 6
        assert client not in servers
        assert all(0 <= s < 16 for s in servers)


# -- errors ------------------------------------------------------------------

def test_matrix_needs_two_hosts():
    with pytest.raises(ValueError):
        pick_dst(random.Random(0), 1, 0)


def test_pick_servers_rejects_impossible_count():
    with pytest.raises(ValueError):
        pick_servers(random.Random(0), 8, 0, 8)
