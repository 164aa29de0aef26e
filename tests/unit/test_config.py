"""ExperimentConfig and its derived parameters."""

import dataclasses

import pytest

from repro.experiments.config import (
    BENCH_SYSTEMS,
    ExperimentConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.experiments.runner import (
    derive_ecn_threshold,
    derive_ordering_timeout,
    derive_swift_target,
    resolve_transport_config,
)
from repro.faults.spec import FaultSpec
from repro.net.builder import NetworkParams, PfcConfig
from repro.net.topology import FatTree
from repro.sim.units import MILLISECOND, gbps, kb, usecs
from repro.workload.spec import BackgroundSpec, IncastSpec


def test_system_name_validated():
    with pytest.raises(ValueError):
        SystemConfig(name="bogus")
    for name in BENCH_SYSTEMS:
        assert SystemConfig(name=name).name == name


def test_workload_rejects_double_incast_spec():
    with pytest.raises(ValueError):
        WorkloadConfig((IncastSpec(load=0.2, qps=100),))


def test_workload_total_load():
    assert WorkloadConfig((BackgroundSpec(load=0.5),
                           IncastSpec(load=0.25))).total_load == 0.75
    assert WorkloadConfig((BackgroundSpec(load=0.5),)).total_load == 0.5


def test_paper_profile_matches_section_4_1():
    config = ExperimentConfig.paper_profile()
    assert config.topology.n_hosts == 320
    assert config.network.host_rate_bps == gbps(10)
    assert config.network.fabric_rate_bps == gbps(40)
    assert config.network.buffer_bytes == kb(300)
    assert config.sim_time_ns == 5_000_000_000


def test_paper_scale_ordering_timeout_is_360us():
    # The derivation must reproduce the paper's tau = 360 us (§3.3.2).
    assert derive_ordering_timeout(
        ExperimentConfig.paper_profile().network) == usecs(360)


def test_bench_profile_shapes():
    config = ExperimentConfig.bench_profile(system="vertigo",
                                            bg_load=0.5, incast_load=0.25)
    assert config.topology.n_hosts == 32
    assert config.workload.total_load == 0.75
    assert config.system.name == "vertigo"


def test_bench_fat_tree_profile():
    # The fat-tree bench profile is the bench profile on a k=4 fat-tree
    # (what ``--fat-tree 4`` builds).
    config = ExperimentConfig.bench_profile(topology=FatTree(4))
    assert isinstance(config.topology, FatTree)
    assert config.topology.n_hosts == 16
    assert config.network == ExperimentConfig.bench_profile().network


def test_ecn_threshold_full_scale_is_65_packets():
    params = NetworkParams(buffer_bytes=kb(300))
    assert derive_ecn_threshold(params) == 65 * 1460


def test_ecn_threshold_scales_with_shallow_buffers():
    params = NetworkParams(buffer_bytes=kb(30))
    k = derive_ecn_threshold(params)
    assert 2 * 1460 <= k < kb(30)


def test_swift_target_exceeds_base_rtt():
    params = NetworkParams()
    assert derive_swift_target(params) > params.base_rtt_ns()


def test_resolve_dibs_disables_fast_retransmit():
    config = ExperimentConfig.bench_profile(system="dibs")
    transport = resolve_transport_config(config)
    assert not transport.fast_retransmit


def test_resolve_other_systems_keep_fast_retransmit():
    for system in ("ecmp", "drill", "vertigo"):
        config = ExperimentConfig.bench_profile(system=system)
        assert resolve_transport_config(config).fast_retransmit


def test_resolve_swift_fills_target_and_fine_rto():
    config = ExperimentConfig.bench_profile(system="ecmp",
                                            transport="swift")
    transport = resolve_transport_config(config)
    assert transport.swift_target_delay_ns > 0
    assert transport.min_rto_ns <= 4 * transport.swift_target_delay_ns


def test_vertigo_system_kwargs_flow_through():
    config = ExperimentConfig.bench_profile(system="vertigo",
                                            boost_factor=8,
                                            ordering=False)
    assert config.system.boost_factor == 8
    assert not config.system.ordering


@pytest.mark.parametrize("factor", [3, 0, -2, 6])
def test_boost_factor_that_cannot_be_unrotated_fails_at_config_time(factor):
    # Not mid-run at the first boosted re-transmission, and not never
    # when the ordering shim is off.
    with pytest.raises(ValueError, match="power of two"):
        ExperimentConfig.bench_profile(system="vertigo",
                                       boost_factor=factor, ordering=False)
    with pytest.raises(ValueError, match="power of two"):
        SystemConfig(boost_factor=factor)


# -- a config that exists can run ------------------------------------------------

BENCH = ExperimentConfig.bench_profile(sim_time_ns=10 * MILLISECOND)

#: One change per rule a run depends on, each breaking that rule alone,
#: and the message it is refused with.
BROKEN = {
    "transport": ({"transport_name": "foo"}, "unknown transport 'foo'"),
    "sim-time-zero": ({"sim_time_ns": 0}, "sim_time_ns must be positive"),
    "sim-time-negative": ({"sim_time_ns": -5},
                          "sim_time_ns must be positive"),
    "telemetry-zero": ({"telemetry_interval_ns": 0},
                       "telemetry_interval_ns must be positive"),
    "window": ({"workload": WorkloadConfig(warmup_ns=6 * MILLISECOND,
                                           cooldown_ns=4 * MILLISECOND)},
               "leave no measurement window"),
    "hosts": ({"workload": WorkloadConfig((IncastSpec(load=0.1,
                                                      scale=40),))},
              "needs 41 hosts but the topology has 32"),
    # What a fault injector refused when it was built.
    "cables": ({"faults": (FaultSpec(kind="down", link=("leaf0", "spine9"),
                                     at_ns=0),)},
               "no cable between 'leaf0' and 'spine9'"),
    # What the network builder refused.
    "pfc-shared-buffer": (
        {"pfc": PfcConfig(num_classes=2, priority_map=(0, 1)),
         "network": dataclasses.replace(BENCH.network,
                                        shared_buffer_alpha=1.0)},
        "mutually exclusive"),
}


def _built(**changes):
    """``BENCH`` with ``changes``, through the constructor."""
    values = {field.name: getattr(BENCH, field.name)
              for field in dataclasses.fields(BENCH)}
    return ExperimentConfig(**{**values, **changes})


@pytest.mark.parametrize("rule", BROKEN)
def test_a_config_that_cannot_run_cannot_be_built(rule):
    """Refused where it is built or replaced, before any run."""
    changes, message = BROKEN[rule]
    assert _built() == BENCH
    with pytest.raises(ValueError, match=message):
        _built(**changes)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(BENCH, **changes)


def test_a_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        BENCH.seed = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        BENCH.sim_time_ns = 0


def test_window_is_what_warmup_and_cooldown_leave():
    assert BENCH.window is None
    trimmed = dataclasses.replace(BENCH, workload=WorkloadConfig(
        warmup_ns=MILLISECOND, cooldown_ns=2 * MILLISECOND))
    assert trimmed.window == (MILLISECOND, 8 * MILLISECOND)
