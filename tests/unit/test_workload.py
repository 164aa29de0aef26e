"""Background traffic and incast application generators."""

import random

import pytest

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.sim.units import SECOND
from repro.workload.background import poisson_rate_for_load
from repro.workload.distributions import cache_follower
from repro.workload.dutycycle import DutyCycleTraffic
from repro.workload.incast import IncastApp, qps_for_load


class FlowLog:
    def __init__(self):
        self.flows = []

    def __call__(self, src, dst, size, is_incast=False, query_id=None):
        self.flows.append((src, dst, size, is_incast, query_id))


def background(engine, log, **kwargs):
    """Plain Poisson background: the duty-cycle generator, always on."""
    return DutyCycleTraffic(engine, log, duty=1.0, period_ns=1_000_000,
                            **kwargs)


def test_poisson_rate_formula():
    # 50% of 10 hosts x 1 Gbps with 1 MB mean flows.
    rate = poisson_rate_for_load(0.5, 10, 10 ** 9, 1_000_000)
    assert rate == pytest.approx(0.5 * 10 * 1e9 / 8e6)


def test_background_offered_load_close_to_target():
    engine = Engine()
    log = FlowLog()
    sizes = cache_follower().truncated(200_000)
    traffic = background(engine, log, n_hosts=16, host_rate_bps=10 ** 9,
                         load=0.5, sizes=sizes, rng=random.Random(1),
                         until_ns=SECOND)
    traffic.start()
    engine.run(until=SECOND)
    offered = sum(size for _, _, size, _, _ in log.flows) * 8
    capacity = 16 * 10 ** 9
    assert offered / capacity == pytest.approx(0.5, rel=0.1)


def test_background_src_dst_distinct_and_in_range():
    engine = Engine()
    log = FlowLog()
    traffic = background(engine, log, n_hosts=4, host_rate_bps=10 ** 9,
                         load=0.3, sizes=cache_follower(),
                         rng=random.Random(2), until_ns=SECOND // 10)
    traffic.start()
    engine.run(until=SECOND // 10)
    assert log.flows
    for src, dst, _, is_incast, query_id in log.flows:
        assert 0 <= src < 4 and 0 <= dst < 4 and src != dst
        assert not is_incast and query_id is None


def test_background_zero_load_generates_nothing():
    engine = Engine()
    log = FlowLog()
    traffic = background(engine, log, n_hosts=4, host_rate_bps=10 ** 9,
                         load=0.0, sizes=cache_follower(),
                         rng=random.Random(3), until_ns=SECOND)
    traffic.start()
    engine.run(until=SECOND)
    assert log.flows == []


def test_background_stops_at_horizon():
    engine = Engine()
    log = FlowLog()
    traffic = background(engine, log, n_hosts=4, host_rate_bps=10 ** 9,
                         load=0.5, sizes=cache_follower(),
                         rng=random.Random(4), until_ns=SECOND // 100)
    traffic.start()
    engine.run()
    assert engine.now <= SECOND // 100
    assert traffic.flows_generated == len(log.flows)


def test_background_needs_two_hosts():
    with pytest.raises(ValueError):
        background(Engine(), FlowLog(), n_hosts=1, host_rate_bps=10 ** 9,
                   load=0.5, sizes=cache_follower(),
                   rng=random.Random(0), until_ns=SECOND)


def test_qps_for_load_formula():
    qps = qps_for_load(0.25, 32, 200_000_000, 8, 40_000)
    assert qps == pytest.approx(0.25 * 32 * 2e8 / (8 * 8 * 40_000))


def test_incast_queries_have_correct_fanout():
    engine = Engine()
    log = FlowLog()
    metrics = MetricsCollector()
    app = IncastApp(engine, log, metrics, n_hosts=16, qps=500, scale=5,
                    flow_bytes=40_000, rng=random.Random(5),
                    until_ns=SECOND // 10)
    app.start()
    engine.run()
    assert app.queries_issued >= 10
    assert len(log.flows) == app.queries_issued * 5
    for src, dst, size, is_incast, query_id in log.flows:
        assert is_incast and size == 40_000 and query_id is not None
    assert len(metrics.queries) == app.queries_issued


def test_incast_servers_distinct_and_exclude_client():
    engine = Engine()
    log = FlowLog()
    metrics = MetricsCollector()
    app = IncastApp(engine, log, metrics, n_hosts=8, qps=200, scale=7,
                    flow_bytes=1_000, rng=random.Random(6),
                    until_ns=SECOND // 20)
    app.start()
    engine.run()
    by_query = {}
    for src, dst, _, _, query_id in log.flows:
        by_query.setdefault(query_id, []).append((src, dst))
    for query_id, pairs in by_query.items():
        client = metrics.queries[query_id].client
        servers = [src for src, _ in pairs]
        assert len(set(servers)) == 7
        assert client not in servers
        assert all(dst == client for _, dst in pairs)


def test_incast_scale_must_be_below_host_count():
    with pytest.raises(ValueError):
        IncastApp(Engine(), FlowLog(), MetricsCollector(), n_hosts=8,
                  qps=10, scale=8, flow_bytes=1000,
                  rng=random.Random(0), until_ns=SECOND)


def test_incast_responses_start_after_request_delay():
    engine = Engine()
    stamps = []

    def log(src, dst, size, is_incast=False, query_id=None):
        stamps.append(engine.now)

    metrics = MetricsCollector()
    app = IncastApp(engine, log, metrics, n_hosts=8, qps=100, scale=3,
                    flow_bytes=1000, rng=random.Random(7),
                    until_ns=SECOND // 50, request_delay_ns=5_000)
    app.start()
    engine.run()
    issue_times = [q.start_ns for q in metrics.queries.values()]
    # Every response flow starts at least request_delay after its query.
    assert all(any(0 < stamp - t0 <= 6_000 for t0 in issue_times)
               for stamp in stamps)
