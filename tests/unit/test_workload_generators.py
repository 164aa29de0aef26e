"""Coflow and duty-cycle generators: barriers, CCT accounting, burst
gating; and the offered load every generator kind delivers."""

import random

import pytest

from repro.experiments.config import WorkloadConfig
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import MILLISECOND, SECOND
from repro.workload.coflow import CoflowApp
from repro.workload.distributions import cache_follower
from repro.workload.arrivals import DutyCycleTraffic
from repro.workload.registry import WorkloadContext, build_workload
from repro.workload.spec import (
    BackgroundSpec,
    CoflowSpec,
    DutyCycleSpec,
    IncastSpec,
    check_hosts,
)


class FakeNet:
    """A flow opener that completes each flow after a fixed service time,
    driving metrics and the coflow's barrier callback the way the
    experiment runner does (completion recorded, then ``on_done``)."""

    def __init__(self, engine, metrics, service_ns=10_000):
        self.engine = engine
        self.metrics = metrics
        self.service_ns = service_ns
        self.opened = []
        self._next_flow_id = 0

    def __call__(self, src, dst, size, is_incast=False, query_id=None,
                 coflow_id=None, on_done=None):
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        self.opened.append((self.engine.now, src, dst, size, coflow_id))
        self.metrics.flow_started(flow_id, src, dst, size, self.engine.now,
                                  is_incast=is_incast, query_id=query_id,
                                  coflow_id=coflow_id)
        self.engine.schedule_fast(self.service_ns, self._finish, flow_id,
                                  on_done)

    def _finish(self, flow_id, on_done):
        self.metrics.flow_completed(flow_id, self.engine.now)
        if on_done is not None:
            on_done(flow_id)


def make_coflow_app(pattern="shuffle", width=3, stages=2, cps=200.0,
                    n_hosts=16, until_ns=SECOND // 10, seed=1):
    engine = Engine()
    metrics = MetricsCollector()
    net = FakeNet(engine, metrics)
    spec = CoflowSpec(width=width, stages=stages, pattern=pattern,
                      flow_bytes=40_000, cps=cps)
    app = CoflowApp(engine, net, metrics, n_hosts=n_hosts, cps=cps,
                    spec=spec, rng=random.Random(seed), until_ns=until_ns)
    return engine, metrics, net, app


#: kind -> (an active spec, the relative tolerance on its offered load).
#: Incast and coflow carry fixed bytes per arrival, sized for >= 5,000
#: arrivals in the simulated second (so +-5 % is >= 3.5 sigma of the
#: Poisson count); background and duty-cycle sizes are drawn.
OFFERED_LOAD_CASES = {
    "background": (BackgroundSpec(load=0.5, size_cap=200_000), 0.10),
    "incast": (IncastSpec(load=0.2, scale=4, flow_bytes=10_000), 0.05),
    "coflow": (CoflowSpec(width=2, stages=2, flow_bytes=10_000, load=0.2),
               0.05),
    "duty_cycle": (DutyCycleSpec(load=0.4, duty=0.25, size_cap=200_000),
                   0.15),
}


@pytest.mark.parametrize("kind", sorted(OFFERED_LOAD_CASES))
def test_offered_load_close_to_target(kind):
    """Over one simulated second, every kind opens the bytes its load
    asks of 16 hosts at 1 Gbps: the one load-to-rate rule, fed each
    kind's bytes per arrival by the registry."""
    spec, tolerance = OFFERED_LOAD_CASES[kind]
    n_hosts, host_rate_bps = 16, 10 ** 9
    for seed in (1, 2, 3):
        engine = Engine()
        metrics = MetricsCollector()
        net = FakeNet(engine, metrics)
        build_workload(WorkloadConfig((spec,)), WorkloadContext(
            engine=engine, open_flow=net, metrics=metrics, n_hosts=n_hosts,
            host_rate_bps=host_rate_bps, rng=RngRegistry(seed),
            until_ns=SECOND))
        engine.run()   # every arrival up to 1 s, and its later stages
        offered_bytes = sum(size for _, _, _, size, _ in net.opened)
        target_bytes = spec.load * n_hosts * host_rate_bps // 8
        assert offered_bytes == pytest.approx(target_bytes, rel=tolerance)


def test_shuffle_coflow_opens_width_squared_per_stage():
    engine, metrics, net, app = make_coflow_app(width=3, stages=2)
    app.start()
    engine.run()
    assert app.coflows_launched >= 2
    assert app.spec.flows_per_coflow == 18
    by_coflow = {}
    for _, src, dst, _, coflow_id in net.opened:
        by_coflow.setdefault(coflow_id, []).append((src, dst))
    completed = [c for c in metrics.coflows.values() if c.completed]
    assert completed
    for record in completed:
        assert len(by_coflow[record.coflow_id]) == 18


def test_shuffle_stage_barrier_orders_flow_opens():
    engine, metrics, net, app = make_coflow_app(width=2, stages=2,
                                                cps=20.0)
    app.start()
    engine.run()
    by_coflow = {}
    for t, src, dst, _, coflow_id in net.opened:
        by_coflow.setdefault(coflow_id, []).append((t, src, dst))
    record = next(c for c in metrics.coflows.values() if c.completed)
    opens = by_coflow[record.coflow_id]
    assert len(opens) == 8
    stage1, stage2 = opens[:4], opens[4:]
    # Every stage-2 flow opens only after every stage-1 flow finished.
    last_stage1_end = max(t for t, _, _ in stage1) + net.service_ns
    assert all(t >= last_stage1_end for t, _, _ in stage2)
    # Roles swap between stages: stage-2 sends the reverse direction.
    senders1 = {src for _, src, _ in stage1}
    senders2 = {src for _, src, _ in stage2}
    assert senders1 == {dst for _, _, dst in stage2}
    assert senders2 == {dst for _, _, dst in stage1}


def test_partition_aggregate_scatters_then_gathers():
    engine, metrics, net, app = make_coflow_app(
        pattern="partition_aggregate", width=4, stages=1, cps=20.0)
    app.start()
    engine.run()
    assert app.spec.flows_per_coflow == 8
    record = next(c for c in metrics.coflows.values() if c.completed)
    opens = [(t, src, dst) for t, src, dst, _, cid in net.opened
             if cid == record.coflow_id]
    scatter, gather = opens[:4], opens[4:]
    roots = {src for _, src, _ in scatter}
    assert len(roots) == 1
    root = roots.pop()
    assert all(dst != root for _, _, dst in scatter)
    assert all(dst == root for _, _, dst in gather)
    assert {src for _, src, _ in gather} == {dst for _, _, dst in scatter}


def test_cct_spans_first_open_to_last_completion():
    engine, metrics, net, app = make_coflow_app(width=2, stages=1,
                                                cps=10.0)
    app.start()
    engine.run()
    record = next(c for c in metrics.coflows.values() if c.completed)
    flows = [f for f in metrics.flows.values()
             if f.coflow_id == record.coflow_id]
    assert record.n_flows == len(flows) == 4
    assert record.end_ns == max(f.end_ns for f in flows)
    assert record.cct_ns == record.end_ns - record.start_ns
    assert metrics.mean_cct_s() > 0


def test_coflow_width_must_fit_topology():
    with pytest.raises(ValueError):             # shuffle needs 2x9 hosts
        check_hosts([CoflowSpec(width=9, load=0.1)], 16)
    with pytest.raises(ValueError):             # pa needs width+1 hosts
        check_hosts([CoflowSpec(pattern="partition_aggregate", width=16,
                                cps=5.0)], 16)
    check_hosts([CoflowSpec(width=8, load=0.1),
                 CoflowSpec(pattern="partition_aggregate", width=15,
                            cps=5.0)], 16)


def test_coflow_zero_rate_generates_nothing():
    engine, metrics, net, app = make_coflow_app(cps=0.0)
    app.start()
    engine.run()
    assert net.opened == [] and app.coflows_launched == 0


# -- duty cycle ---------------------------------------------------------------

def make_duty(duty, load=0.4, period_ns=MILLISECOND, seed=3,
              until_ns=SECOND // 2):
    engine = Engine()
    log = []

    def opener(src, dst, size, is_incast=False, query_id=None):
        log.append((engine.now, src, dst, size))

    traffic = DutyCycleTraffic(engine, opener, n_hosts=16,
                               host_rate_bps=10 ** 9, load=load, duty=duty,
                               period_ns=period_ns,
                               sizes=cache_follower().truncated(200_000),
                               rng=random.Random(seed), until_ns=until_ns)
    traffic.start()
    engine.run(until=until_ns)
    return traffic, log


def test_duty_cycle_arrivals_stay_inside_on_windows():
    traffic, log = make_duty(duty=0.2)
    assert log
    for t, _, _, _ in log:
        assert t % traffic.period_ns < traffic.on_ns


def test_duty_cycle_preserves_offered_load():
    # The same mean byte rate regardless of burstiness.
    offered = {}
    for duty in (1.0, 0.25):
        traffic, log = make_duty(duty=duty)
        offered[duty] = sum(size for _, _, _, size in log) * 8
    capacity = 16 * 10 ** 9 // 2   # half-second horizon
    assert offered[1.0] / capacity == pytest.approx(0.4, rel=0.15)
    assert offered[0.25] == pytest.approx(offered[1.0], rel=0.2)


def test_duty_one_matches_plain_background_statistics():
    traffic, log = make_duty(duty=1.0)
    assert traffic.on_ns == traffic.period_ns
    # With a full on-window, nothing is gated: arrivals cover the period.
    phases = [t % traffic.period_ns for t, _, _, _ in log]
    assert max(phases) > 0.9 * traffic.period_ns


def test_duty_cycle_times_are_monotone_ints():
    traffic, log = make_duty(duty=0.1, seed=11)
    times = [t for t, _, _, _ in log]
    assert all(type(t) is int for t in times)
    assert times == sorted(times)


def test_duty_cycle_picks_valid_endpoints():
    traffic, log = make_duty(duty=0.5, seed=12, until_ns=SECOND // 20)
    assert traffic.flows_generated == len(log)
    for _, src, dst, _ in log:
        assert 0 <= src < 16 and 0 <= dst < 16 and src != dst


def test_duty_cycle_zero_load_generates_nothing():
    traffic, log = make_duty(duty=0.5, load=0.0)
    assert log == []


def test_duty_cycle_validation():
    with pytest.raises(ValueError):
        check_hosts([DutyCycleSpec(load=0.1, duty=0.5, period_ns=1000)], 1)
    with pytest.raises(ValueError):
        DutyCycleSpec(load=0.1, duty=0.0, period_ns=1000)
