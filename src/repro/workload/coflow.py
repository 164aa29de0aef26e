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

import random
from typing import Callable, List, Tuple

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.trace import hooks as _trace_hooks
from repro.workload.arrivals import FlowOpener, PoissonArrivals
from repro.workload.matrix import pick_servers, pick_src
from repro.workload.spec import CoflowSpec

_TRACE = _trace_hooks.register(__name__)


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


class CoflowApp(PoissonArrivals):
    """Poisson coflow generator with stage barriers."""

    def __init__(self, engine: Engine, open_flow: FlowOpener,
                 metrics: MetricsCollector, n_hosts: int, cps: float,
                 spec: CoflowSpec, rng: random.Random, until_ns: int,
                 request_delay_ns: int = 2_000) -> None:
        super().__init__(engine, rng, until_ns, cps)
        self.open_flow = open_flow
        self.metrics = metrics
        self.n_hosts = n_hosts
        self.spec = spec
        self.request_delay_ns = request_delay_ns

    @property
    def _n_barriers(self) -> int:
        """Barrier-separated launch rounds: one per shuffle stage, two
        per partition–aggregate round (scatter, then gather)."""
        spec = self.spec
        return spec.stages if spec.pattern == "shuffle" else 2 * spec.stages

    def _arrive(self) -> None:
        spec = self.spec
        if spec.pattern == "shuffle":
            first = pick_src(self.rng, self.n_hosts)
            rest = pick_servers(self.rng, self.n_hosts, first,
                                2 * spec.width - 1)
            nodes = [first] + rest
            members: Tuple = (tuple(nodes[:spec.width]),
                              tuple(nodes[spec.width:]))
        else:
            root = pick_src(self.rng, self.n_hosts)
            workers = pick_servers(self.rng, self.n_hosts, root, spec.width)
            members = (root, tuple(workers))
        coflow_id = self.metrics.coflow_started(
            self.engine.now, n_flows=spec.flows_per_coflow,
            stages=spec.stages, pattern=spec.pattern).coflow_id
        self._start_stage(coflow_id, members, 0)
        self._schedule_next()

    def _stage_pairs(self, members, stage: int
                     ) -> List[Tuple[int, int]]:
        if self.spec.pattern == "shuffle":
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
        self.open_flow(src, dst, self.spec.flow_bytes, is_incast=False,
                       query_id=None, coflow_id=coflow_id, on_done=on_done)
