"""Endpoint picks: independent, uniformly random hosts (the paper's
traffic matrix, §4.1).

Every generator picks its endpoints through these three functions.
Each makes the same ``random.Random`` calls in the same order as the
draws the generators were written with, which is what keeps every
pinned run digest byte-identical
(``tests/integration/test_workload_digests.py``).  Too few hosts for a
pick is the ``ValueError`` ``random`` itself raises.
"""

from __future__ import annotations

from typing import List


def pick_src(rng, n_hosts: int) -> int:
    """One source host."""
    return rng.randrange(n_hosts)


def pick_dst(rng, n_hosts: int, src: int) -> int:
    """One destination host, never ``src``."""
    dst = rng.randrange(n_hosts - 1)
    return dst + 1 if dst >= src else dst


def pick_servers(rng, n_hosts: int, client: int, count: int) -> List[int]:
    """``count`` distinct hosts, none of them ``client``."""
    pool = list(range(n_hosts))
    pool.remove(client)
    return rng.sample(pool, count)
