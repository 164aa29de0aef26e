"""Coflow/shuffle generator: staged collective transfers measured by CCT.

A *coflow* is the set of flows one distributed job puts on the network
(Chowdhury's abstraction); its completion time — last flow done minus
coflow start — is what the job actually experiences, so CCT is the
first-class metric here, recorded in
:class:`~repro.metrics.collector.MetricsCollector` and reported by
:class:`~repro.experiments.report.RunReport`.

Two stage patterns:

- ``shuffle`` — ``stages`` all-to-all rounds between two disjoint
  worker sets of ``width`` hosts each (``width²`` flows per stage);
  the sets swap sender/receiver roles every stage, like map→reduce
  waves writing back for the next iteration.
- ``partition_aggregate`` — ``stages`` rounds of a root scattering to
  ``width`` workers followed by the workers gathering back (two
  barriers, ``2 × width`` flows per round).

A stage opens only after every flow of the previous stage has been
fully received (the barrier the straggler literature studies), driven
by per-flow completion callbacks from the experiment runner.  Coflow
arrivals are Poisson at ``cps`` coflows/s; member sets are uniformly
random hosts.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, List, Tuple

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.sim.units import SECOND
from repro.trace import hooks as _trace_hooks
from repro.workload.matrix import pick_servers, pick_src

_TRACE = _trace_hooks.register(__name__)

FlowOpener = Callable[..., None]


def cps_for_load(load: float, n_hosts: int, host_rate_bps: int,
                 flows_per_coflow: int, flow_bytes: int) -> float:
    """Coflows/s so coflow traffic offers ``load`` of host bandwidth."""
    if flows_per_coflow <= 0 or flow_bytes <= 0:
        raise ValueError("coflow flow count and flow size must be positive")
    # The returned coflow *rate* (coflows/s) is a float by nature.
    coflow_bits = 8.0 * flows_per_coflow * flow_bytes
    return load * n_hosts * host_rate_bps / coflow_bits  # noqa: VR003


class _StageBarrier:
    """Countdown barrier releasing the next stage of one coflow.

    A picklable stand-in for the per-stage ``flow_done`` closure: it
    rides in flow ``on_done`` callbacks (and the engine calendar) and
    must survive a checkpoint mid-stage.
    """

    __slots__ = ("app", "coflow_id", "members", "stage", "remaining")

    def __init__(self, app: "CoflowApp", coflow_id: int, members,
                 stage: int, remaining: int) -> None:
        self.app = app
        self.coflow_id = coflow_id
        self.members = members
        self.stage = stage
        self.remaining = remaining

    def __call__(self, flow_id: int) -> None:
        self.remaining -= 1
        if self.remaining == 0 and self.stage + 1 < self.app._n_barriers:
            self.app._start_stage(self.coflow_id, self.members,
                                  self.stage + 1)


class CoflowApp:
    """Poisson coflow generator with stage barriers."""

    def __init__(self, engine: Engine, open_flow: FlowOpener,
                 metrics: MetricsCollector, n_hosts: int, cps: float,
                 width: int, stages: int, pattern: str, flow_bytes: int,
                 rng: random.Random, until_ns: int,
                 request_delay_ns: int = 2_000) -> None:
        members_needed = 2 * width if pattern == "shuffle" else width + 1
        if members_needed > n_hosts:
            raise ValueError(
                f"{pattern} coflow of width {width} needs {members_needed} "
                f"hosts but the topology has {n_hosts}")
        self.engine = engine
        self.open_flow = open_flow
        self.metrics = metrics
        self.n_hosts = n_hosts
        self.cps = cps
        self.width = width
        self.stages = stages
        self.pattern = pattern
        self.flow_bytes = flow_bytes
        self.rng = rng
        self.until_ns = until_ns
        self.request_delay_ns = request_delay_ns
        self.coflows_launched = 0
        # Coflow ids are per-app (not process-global) so runs in the same
        # process stay bit-identical for a given seed.
        self._coflow_ids = itertools.count(1)
        self._mean_gap_ns = max(1, round(SECOND / cps)) if cps > 0 else None

    @property
    def flows_per_coflow(self) -> int:
        per_stage = self.width * self.width \
            if self.pattern == "shuffle" else 2 * self.width
        return per_stage * self.stages

    @property
    def _n_barriers(self) -> int:
        """Barrier-separated launch rounds: one per shuffle stage, two
        per partition–aggregate round (scatter, then gather)."""
        return self.stages if self.pattern == "shuffle" else 2 * self.stages

    def start(self) -> None:
        if self._mean_gap_ns is not None:
            self._schedule_next()

    def _schedule_next(self) -> None:
        # Rate parameter in 1/ns; the drawn gap is rounded to int ns below.
        gap = self.rng.expovariate(1.0 / self._mean_gap_ns)  # noqa: VR003
        when = self.engine.now + max(1, round(gap))
        if when <= self.until_ns:
            self.engine.schedule_at(when, self._launch_coflow)

    def _launch_coflow(self) -> None:
        coflow_id = next(self._coflow_ids)
        if self.pattern == "shuffle":
            first = pick_src(self.rng, self.n_hosts)
            rest = pick_servers(self.rng, self.n_hosts, first,
                                2 * self.width - 1)
            nodes = [first] + rest
            members: Tuple = (tuple(nodes[:self.width]),
                              tuple(nodes[self.width:]))
        else:
            root = pick_src(self.rng, self.n_hosts)
            workers = pick_servers(self.rng, self.n_hosts, root, self.width)
            members = (root, tuple(workers))
        self.metrics.coflow_started(coflow_id, self.engine.now,
                                    n_flows=self.flows_per_coflow,
                                    stages=self.stages,
                                    pattern=self.pattern)
        self.coflows_launched += 1
        self._start_stage(coflow_id, members, 0)
        self._schedule_next()

    def _stage_pairs(self, members, stage: int
                     ) -> List[Tuple[int, int]]:
        if self.pattern == "shuffle":
            group_a, group_b = members
            senders, receivers = (group_a, group_b) if stage % 2 == 0 \
                else (group_b, group_a)
            return [(src, dst) for src in senders for dst in receivers]
        root, workers = members
        if stage % 2 == 0:       # scatter: root -> workers
            return [(root, worker) for worker in workers]
        return [(worker, root) for worker in workers]  # gather

    def _start_stage(self, coflow_id: int, members, stage: int) -> None:
        pairs = self._stage_pairs(members, stage)
        if _TRACE is not None:
            _TRACE.record(("coflow.stage", self.engine.now, coflow_id, stage,
                           len(pairs)))
        flow_done = _StageBarrier(self, coflow_id, members, stage,
                                  len(pairs))
        for src, dst in pairs:
            # Flows start after the stage-coordination latency, with a
            # small per-flow jitter from OS scheduling (incast idiom).
            delay = self.request_delay_ns + self.rng.randrange(0, 1_000)
            self.engine.schedule_fast(delay, self._open, src, dst,
                                      coflow_id, flow_done)

    def _open(self, src: int, dst: int, coflow_id: int,
              on_done: Callable[[int], None]) -> None:
        self.open_flow(src, dst, self.flow_bytes, is_incast=False,
                       query_id=None, coflow_id=coflow_id, on_done=on_done)
