"""Datacenter topologies: two-tier leaf-spine and fat-tree.

A :class:`Topology` is a pure structural description — switch names, the
host-to-ToR mapping, and switch-switch adjacency — plus shortest-path
multipath route computation.  The network *builder*
(:mod:`repro.net.builder`) instantiates switches, hosts, queues and links
from it.

Route tables are computed by BFS over the switch graph from each ToR: the
candidates at switch ``s`` for a host behind ToR ``t`` are all neighbours
one hop closer to ``t``.  This yields exactly the classic ECMP up-down
path sets in both topologies, and it also gives *deflected* packets (which
may find themselves anywhere in the fabric) a valid route onward from any
switch.

Route computation runs over a *live* link set: every method takes an
optional ``exclude`` collection of dead cables (canonical sorted endpoint
pairs, see :func:`repro.faults.spec.cable_key`), so the fault-injection
subsystem recomputes routes by BFS over the surviving edges without
mutating the topology object itself.  With ``strict=False``,
:meth:`Topology.next_hop_table` maps unreachable ToRs to empty candidate
tuples instead of raising — forwarding policies translate those into
``no_route`` drops at runtime.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Collection, Dict, List, Optional, Sequence, Tuple


class Topology(abc.ABC):
    """Structural description of a datacenter fabric.

    Two topologies are equal when they are of the same type and have the
    same ``repr`` — the identity ``config_digest`` hashes.  A subclass
    that keeps the default ``repr`` (which names the object's address)
    therefore compares by identity.
    """

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))

    @property
    @abc.abstractmethod
    def n_hosts(self) -> int: ...

    @property
    @abc.abstractmethod
    def switch_names(self) -> Sequence[str]: ...

    @abc.abstractmethod
    def host_tor(self, host: int) -> str:
        """Name of the ToR switch the host attaches to."""

    @property
    @abc.abstractmethod
    def switch_adjacency(self) -> Sequence[Tuple[str, str]]:
        """Each inter-switch full-duplex cable, listed once."""

    # -- shared route computation ---------------------------------------------

    def neighbours(self, exclude: Optional[Collection[Tuple[str, str]]]
                   = None) -> Dict[str, List[str]]:
        """Adjacency lists over the live cables (``exclude`` = dead set)."""
        adjacency: Dict[str, List[str]] = {name: []
                                           for name in self.switch_names}
        for a, b in self.switch_adjacency:
            if exclude and ((a, b) if a <= b else (b, a)) in exclude:
                continue
            adjacency[a].append(b)
            adjacency[b].append(a)
        return adjacency

    def bfs_distances(self, source: str,
                      exclude: Optional[Collection[Tuple[str, str]]] = None,
                      ) -> Dict[str, int]:
        adjacency = self.neighbours(exclude)
        distances = {source: 0}
        frontier = deque([source])
        while frontier:
            node = frontier.popleft()
            for neighbour in adjacency[node]:
                if neighbour not in distances:
                    distances[neighbour] = distances[node] + 1
                    frontier.append(neighbour)
        return distances

    def next_hop_table(self,
                       exclude: Optional[Collection[Tuple[str, str]]] = None,
                       strict: bool = True,
                       ) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """``table[switch][tor]`` = names of neighbours one hop closer.

        Keys are ToR names; the builder expands them to per-host FIB
        entries (all hosts behind a ToR share its entry).  ``exclude``
        removes dead cables from the BFS; with ``strict=False`` a switch
        that cannot reach a ToR over the surviving edges gets an empty
        candidate tuple instead of a :class:`ValueError` (build-time
        wiring stays strict, runtime rewiring tolerates partitions).
        """
        adjacency = self.neighbours(exclude)
        tors = sorted({self.host_tor(host) for host in range(self.n_hosts)})
        table: Dict[str, Dict[str, Tuple[str, ...]]] = {
            name: {} for name in self.switch_names}
        for tor in tors:
            distances = self.bfs_distances(tor, exclude)
            for switch in self.switch_names:
                if switch == tor:
                    continue
                if switch not in distances:
                    if strict:
                        raise ValueError(
                            f"switch {switch} cannot reach ToR {tor}")
                    table[switch][tor] = ()
                    continue
                closer = tuple(sorted(
                    neighbour for neighbour in adjacency[switch]
                    if distances.get(neighbour, -1)
                    == distances[switch] - 1))
                table[switch][tor] = closer
        return table


class LeafSpine(Topology):
    """Two-tier leaf-spine: every leaf (ToR) connects to every spine.

    The paper's large-scale setup (§4.1) is 4 spines ("cores"), 8 leaves
    ("aggregates"), and 320 servers — :func:`paper_leaf_spine`.
    """

    def __init__(self, n_spines: int, n_leaves: int,
                 hosts_per_leaf: int) -> None:
        if min(n_spines, n_leaves, hosts_per_leaf) < 1:
            raise ValueError("leaf-spine dimensions must be positive")
        self.n_spines = n_spines
        self.n_leaves = n_leaves
        self.hosts_per_leaf = hosts_per_leaf
        self._switches = ([f"leaf{i}" for i in range(n_leaves)]
                          + [f"spine{i}" for i in range(n_spines)])
        self._adjacency = [(f"leaf{leaf}", f"spine{spine}")
                           for leaf in range(n_leaves)
                           for spine in range(n_spines)]

    @property
    def n_hosts(self) -> int:
        return self.n_leaves * self.hosts_per_leaf

    @property
    def switch_names(self) -> Sequence[str]:
        return self._switches

    def host_tor(self, host: int) -> str:
        if not 0 <= host < self.n_hosts:
            raise ValueError(f"host {host} out of range")
        return f"leaf{host // self.hosts_per_leaf}"

    @property
    def switch_adjacency(self) -> Sequence[Tuple[str, str]]:
        return self._adjacency

    def __repr__(self) -> str:
        return (f"LeafSpine(spines={self.n_spines}, leaves={self.n_leaves}, "
                f"hosts_per_leaf={self.hosts_per_leaf})")


class FatTree(Topology):
    """Three-tier fat-tree of degree ``k`` (Al-Fares et al., SIGCOMM 2008).

    ``k`` pods, each with ``k/2`` edge (ToR) and ``k/2`` aggregation
    switches; ``(k/2)^2`` core switches; ``k^3/4`` hosts.  The paper's
    validation topology is ``k = 8``: 128 servers, 80 switches —
    :func:`paper_fat_tree`.
    """

    def __init__(self, k: int) -> None:
        if k < 2 or k % 2:
            raise ValueError(f"fat-tree degree must be even and >= 2, got {k}")
        self.k = k
        half = k // 2
        self.hosts_per_edge = half
        self._edges = [f"edge{pod}_{i}"
                       for pod in range(k) for i in range(half)]
        self._aggs = [f"agg{pod}_{i}"
                      for pod in range(k) for i in range(half)]
        self._cores = [f"core{i}" for i in range(half * half)]
        self._switches = self._edges + self._aggs + self._cores
        adjacency: List[Tuple[str, str]] = []
        for pod in range(k):
            for edge in range(half):
                for agg in range(half):
                    adjacency.append((f"edge{pod}_{edge}", f"agg{pod}_{agg}"))
        # Aggregation switch j of every pod connects to cores
        # [j*half, (j+1)*half).
        for pod in range(k):
            for agg in range(half):
                for core in range(agg * half, (agg + 1) * half):
                    adjacency.append((f"agg{pod}_{agg}", f"core{core}"))
        self._adjacency = adjacency

    @property
    def n_hosts(self) -> int:
        return self.k ** 3 // 4

    @property
    def switch_names(self) -> Sequence[str]:
        return self._switches

    def host_tor(self, host: int) -> str:
        if not 0 <= host < self.n_hosts:
            raise ValueError(f"host {host} out of range")
        edge_index = host // self.hosts_per_edge
        pod, edge = divmod(edge_index, self.k // 2)
        return f"edge{pod}_{edge}"

    @property
    def switch_adjacency(self) -> Sequence[Tuple[str, str]]:
        return self._adjacency

    def __repr__(self) -> str:
        return f"FatTree(k={self.k})"


def paper_leaf_spine() -> LeafSpine:
    """The paper's simulated leaf-spine: 4 spines, 8 leaves, 320 servers."""
    return LeafSpine(n_spines=4, n_leaves=8, hosts_per_leaf=40)


def paper_fat_tree() -> FatTree:
    """The paper's validation fat-tree: k=8, 128 servers, 80 switches."""
    return FatTree(k=8)
