"""Dynamic-Threshold shared buffer pool."""

import pytest

from repro.net.queues import DropTailQueue, SharedBufferPool
from tests.helpers import mk_data


def test_pool_validation():
    with pytest.raises(ValueError):
        SharedBufferPool(0)
    with pytest.raises(ValueError):
        SharedBufferPool(1000, alpha=0)


def test_threshold_shrinks_as_pool_fills():
    pool = SharedBufferPool(10_000, alpha=1.0)
    assert pool.threshold() == 10_000
    pool.on_push(4_000)
    assert pool.threshold() == 6_000


def test_single_queue_can_exceed_nominal_share():
    """The DT win: one hot queue borrows idle ports' buffer."""
    pool = SharedBufferPool(4 * 3_000, alpha=1.0)
    queues = [DropTailQueue(3_000, pool=pool) for _ in range(4)]
    hot = queues[0]
    pushed = 0
    packet = mk_data(payload=960)  # 1000 wire bytes
    while hot.fits(packet):
        hot.push(packet)
        pushed += 1
        packet = mk_data(payload=960)
    # Static per-port would cap at 3 packets; DT alpha=1 admits ~6.
    assert pushed > 3


def test_dt_equilibrium_respects_alpha():
    # With alpha=1 and one queue: q <= total - q  ->  q <= total/2.
    pool = SharedBufferPool(10_000, alpha=1.0)
    queue = DropTailQueue(10_000, pool=pool)
    packet = mk_data(payload=960)
    while queue.fits(packet):
        queue.push(packet)
        packet = mk_data(payload=960)
    assert queue.bytes <= 5_000 + 1_000


def test_pool_never_overcommits_total():
    pool = SharedBufferPool(5_000, alpha=100.0)  # huge alpha
    queues = [DropTailQueue(5_000, pool=pool) for _ in range(3)]
    packet = mk_data(payload=960)
    total = 0
    progress = True
    while progress:
        progress = False
        for queue in queues:
            if queue.fits(packet):
                queue.push(packet)
                total += packet.wire_bytes
                packet = mk_data(payload=960)
                progress = True
    assert total <= 5_000
    assert pool.used_bytes == total


def test_pop_releases_pool_space():
    pool = SharedBufferPool(3_000, alpha=1.0)
    queue = DropTailQueue(3_000, pool=pool)
    packet = mk_data(payload=960)
    queue.push(packet)
    assert pool.used_bytes == 1_000
    queue.pop()
    assert pool.used_bytes == 0


def test_free_bytes_reflects_dt_limit():
    pool = SharedBufferPool(8_000, alpha=0.5)
    queue = DropTailQueue(8_000, pool=pool)
    assert queue.free_bytes == 4_000  # alpha * free


def test_shared_buffer_network_runs():
    from dataclasses import replace

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig.bench_profile(
        system="ecmp", transport="dctcp", bg_load=0.1, incast_qps=60,
        incast_scale=6, incast_flow_bytes=5_000, sim_time_ns=30_000_000)
    config = replace(config, network=replace(config.network,
                                             shared_buffer_alpha=1.0))
    result = run_experiment(config)
    assert result.metrics.counters.delivered > 0
    # One pool per switch, of one port buffer per port.
    for switch in result.network.switches.values():
        pools = {id(port.queue.pool): port.queue.pool
                 for port in switch.ports}
        (pool,) = pools.values()
        assert pool.total_bytes \
            == len(switch.ports) * config.network.buffer_bytes
    # Every switch got one pool sized buffer x ports; pools balance.
    for name, index, queue in result.network.all_switch_queues():
        assert queue.pool is not None
        assert queue.pool.total_bytes \
            == 30_000 * len(result.network.switches[name].ports)
        assert 0 <= queue.pool.used_bytes <= queue.pool.total_bytes


def test_shared_buffer_absorbs_bursts_better_than_static():
    """The classic DT result: a shared buffer takes a bigger incast
    burst at one port, so fewer drops than static partitioning."""
    from dataclasses import replace

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    base = dict(system="ecmp", transport="dctcp", bg_load=0.0,
                incast_qps=120, incast_scale=12, incast_flow_bytes=10_000,
                sim_time_ns=40_000_000)
    static = run_experiment(ExperimentConfig.bench_profile(**base))
    shared_cfg = ExperimentConfig.bench_profile(**base)
    shared_cfg = replace(shared_cfg, network=replace(
        shared_cfg.network, shared_buffer_alpha=2.0))
    shared = run_experiment(shared_cfg)
    assert shared.metrics.counters.total_drops \
        < static.metrics.counters.total_drops
