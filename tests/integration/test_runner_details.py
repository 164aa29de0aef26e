"""Runner wiring details: derived parameters reach the components."""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    derive_ecn_threshold,
    derive_ordering_timeout,
    run_experiment,
)
from repro.sim.units import MILLISECOND


def _tiny(system="vertigo", transport="dctcp", **kwargs):
    return ExperimentConfig.bench_profile(
        system=system, transport=transport, bg_load=0.05, incast_qps=20,
        incast_scale=3, incast_flow_bytes=3000,
        sim_time_ns=5 * MILLISECOND, **kwargs)


def test_dctcp_run_sets_ecn_threshold_on_queues():
    result = run_experiment(_tiny(system="ecmp"))
    expected = derive_ecn_threshold(result.config.network)
    for _, _, queue in result.network.all_switch_queues():
        assert queue.ecn_threshold_bytes == expected


def test_reno_run_leaves_ecn_off():
    result = run_experiment(_tiny(system="ecmp", transport="reno"))
    for _, _, queue in result.network.all_switch_queues():
        assert queue.ecn_threshold_bytes is None


def test_vertigo_hosts_get_derived_ordering_timeout():
    result = run_experiment(_tiny())
    expected = derive_ordering_timeout(result.config.network)
    for host in result.network.hosts:
        assert host.ordering is not None
        assert host.ordering.timeout_ns == expected


def test_explicit_ordering_timeout_wins():
    result = run_experiment(_tiny(ordering_timeout_ns=777_000))
    assert result.network.hosts[0].ordering.timeout_ns == 777_000


def test_non_vertigo_hosts_have_no_shims():
    result = run_experiment(_tiny(system="dibs"))
    for host in result.network.hosts:
        assert host.marking is None and host.ordering is None


def test_vertigo_no_ordering_ablation_removes_rx_shim_only():
    result = run_experiment(_tiny(ordering=False))
    host = result.network.hosts[0]
    assert host.marking is not None
    assert host.ordering is None


def test_dibs_senders_have_fast_retransmit_disabled():
    result = run_experiment(_tiny(system="dibs"))
    host = next(h for h in result.network.hosts if h.senders or True)
    assert not host.stack.transport.fast_retransmit


def test_swift_senders_get_positive_target():
    result = run_experiment(_tiny(system="ecmp", transport="swift"))
    assert result.network.hosts[0].stack.transport.swift_target_delay_ns > 0


def test_incast_load_to_qps_conversion_used():
    config = ExperimentConfig.bench_profile(
        system="ecmp", bg_load=0.0, incast_load=0.2,
        sim_time_ns=20 * MILLISECOND)
    result = run_experiment(config)
    # 0.2 * 32 hosts * 200 Mb/s / (8 * 12 * 10 KB) = ~1333 qps -> ~27
    # queries in 20 ms (Poisson).
    assert 5 <= result.queries_issued <= 80


def test_flows_registered_before_first_packet_arrives():
    result = run_experiment(_tiny())
    # Every metric flow has matching endpoints created.
    for flow in result.metrics.flows.values():
        receiver = result.network.hosts[flow.dst].receivers.get(
            flow.flow_id)
        assert receiver is not None
        assert receiver.size == flow.size
