"""Unit coverage for the per-link fidelity controller.

Config validation, deterministic path resolution, the demote / promote
/ pin lattice, fair-share round timing (integer ns only), and the
engine's recurring-event primitive the promotion epoch rides on.
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.net.fidelity import (
    FIDELITY_MODES,
    FidelityConfig,
    FidelityController,
)
from repro.sim.engine import Engine
from repro.sim.units import MILLISECOND


def _hybrid_result(**fidelity_kwargs):
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.2,
        incast_qps=60, incast_scale=6, sim_time_ns=5 * MILLISECOND)
    config = dataclasses.replace(
        config, fidelity=FidelityConfig(mode="hybrid", **fidelity_kwargs))
    return run_experiment(config)


# -- config validation --------------------------------------------------------

def test_default_mode_is_packet_and_inactive():
    config = FidelityConfig()
    assert config.mode == "packet"
    assert not config.active


def test_flow_and_hybrid_are_active():
    for mode in ("flow", "hybrid"):
        assert FidelityConfig(mode=mode).active


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="fidelity mode"):
        FidelityConfig(mode="analog")


@pytest.mark.parametrize("field,value", [
    ("demote_shares", 0),
])
def test_threshold_validation(field, value):
    with pytest.raises(ValueError):
        FidelityConfig(mode="hybrid", **{field: value})


def test_digest_view_covers_every_field():
    config = FidelityConfig(mode="hybrid", demote_shares=7)
    # The last three entries are the literals of the once-configurable
    # thresholds: the shape pinned digests hash.
    assert config.digest_view() == ("hybrid", 7, 0, 0, 400)
    assert len(FIDELITY_MODES) == 3


def test_packet_mode_builds_no_controller():
    engine = Engine()
    with pytest.raises(ValueError, match="packet mode"):
        FidelityController(engine, network=None, config=FidelityConfig())


# -- installation and path resolution ----------------------------------------

def test_controller_installed_on_every_layer():
    result = _hybrid_result()
    network = result.network
    controller = network.fidelity
    assert isinstance(controller, FidelityController)
    for switch in network.switches.values():
        assert switch.fidelity is controller
    for link in network.links.values():
        assert link.fidelity is controller
    # Auto thresholds resolved to positive integers.
    assert controller.demote_queue_bytes > 0
    assert controller.promote_epoch_ns > 0


def test_path_resolution_is_deterministic_and_routed():
    result = _hybrid_result()
    controller = result.network.fidelity
    path_a = controller._resolve_path(0, 9, flow_id=1234)
    path_b = controller._resolve_path(0, 9, flow_id=1234)
    assert path_a == path_b
    assert path_a[0] is result.network.hosts[0].nic.link
    # The walk terminates at the destination host's access link.
    assert path_a[-1].dst is result.network.hosts[9]


def test_different_flows_can_hash_to_different_paths():
    result = _hybrid_result()
    controller = result.network.fidelity
    paths = {controller._resolve_path(0, 20, flow_id=fid)
             for fid in range(16)}
    # A multi-path fabric with a flow-hash spreads flows across > 1 path.
    assert len(paths) > 1


# -- mode lattice -------------------------------------------------------------

def test_links_start_analytic():
    result = _hybrid_result()
    controller = result.network.fidelity
    analytic, packet = controller.link_mode_counts()
    assert analytic + packet == len(result.network.links)


def test_demote_and_promote_cycle():
    result = _hybrid_result()
    controller = result.network.fidelity
    link = next(iter(result.network.links.values()))
    state = controller._state[link]
    state.analytic = True
    before = controller.demotions
    controller._demote(link, "queue")
    assert not state.analytic
    assert controller.demotions == before + 1
    # Second demotion of an already-packet link is a no-op.
    controller._demote(link, "queue")
    assert controller.demotions == before + 1
    controller._promote(link)
    assert state.analytic
    assert controller.promotions >= 1


def test_fault_pins_both_directions_permanently():
    result = _hybrid_result()
    network = result.network
    controller = network.fidelity
    (a, b) = next(iter(network.links))
    controller.on_fault(a, b)
    for key in ((a, b), (b, a)):
        link = network.links.get(key)
        if link is None:
            continue
        state = controller._state[link]
        assert state.pinned and not state.analytic
        # A pinned link never promotes, however quiet.
        controller._on_epoch()
        assert not state.analytic
    assert controller.pinned >= 1


def test_flow_mode_ignores_congestion_demotions_but_not_faults():
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.1,
        sim_time_ns=2 * MILLISECOND)
    config = dataclasses.replace(config,
                                 fidelity=FidelityConfig(mode="flow"))
    result = run_experiment(config)
    controller = result.network.fidelity
    link = next(iter(result.network.links.values()))
    controller._demote(link, "queue")
    assert controller._state[link].analytic  # congestion ignored
    (a, b) = next(iter(result.network.links))
    controller.on_fault(a, b)
    assert not controller._state[result.network.links[(a, b)]].analytic


def test_cascade_warns_once_and_points_at_the_design_doc():
    with pytest.warns(RuntimeWarning, match="demotion cascade") as caught:
        result = _hybrid_result(demote_shares=1)
    assert len(caught) == 1
    message = str(caught[0].message)
    assert 'DESIGN.md, "Hybrid fidelity"' in message
    assert "ROADMAP" not in message
    assert result.notices["fidelity_cascade_links"] >= 1


# -- round timing -------------------------------------------------------------

def test_analytic_round_math_is_integer_ns():
    result = _hybrid_result()
    controller = result.network.fidelity
    sender = None
    for host in result.network.hosts:
        for candidate in host.senders.values():
            if candidate.flow_id in controller._flows:
                sender = candidate
                break
        if sender is not None:
            break
    assert sender is not None, "expected at least one adopted flow"
    for pipelined in (False, True):
        round_ns, rtt_ns = controller.analytic_round_ns(
            sender, 15_000, 1_500, pipelined)
        controller.round_finished(sender)
        assert isinstance(round_ns, int) and isinstance(rtt_ns, int)
        assert round_ns >= rtt_ns > 0 or pipelined


def test_concurrent_rounds_shrink_the_fair_share():
    result = _hybrid_result()
    controller = result.network.fidelity
    flows = [fid for fid in controller._flows]
    senders = {s.flow_id: s for h in result.network.hosts
               for s in h.senders.values()}
    shared = [senders[fid] for fid in flows if fid in senders]
    assert len(shared) >= 2
    first, _ = controller.analytic_round_ns(shared[0], 150_000, 1_500, True)
    # Claim many concurrent rounds on overlapping paths, then re-time.
    for other in shared[1:]:
        controller.analytic_round_ns(other, 150_000, 1_500, True)
    # Re-measure the first sender's next round with contention in place.
    controller.round_finished(shared[0])
    contended, _ = controller.analytic_round_ns(shared[0], 150_000, 1_500,
                                               True)
    assert contended >= first
    for other in shared:
        controller.round_finished(other)


def test_round_claims_never_go_negative():
    # Rounds in flight at the horizon legitimately keep their claims
    # (committed, like packets on the wire); but a double release would
    # drive a counter below zero.
    result = _hybrid_result()
    controller = result.network.fidelity
    assert all(state.active >= 0 for state in controller._state.values())
    assert all(state.shares >= 0 for state in controller._state.values())


# -- engine recurring events --------------------------------------------------

def test_schedule_every_fires_at_fixed_interval():
    engine = Engine()
    ticks = []
    engine.schedule_every(10, lambda: ticks.append(engine.now))
    engine.schedule_fast(100, lambda: None)
    engine.run(until=95)
    assert ticks == [10, 20, 30, 40, 50, 60, 70, 80, 90]


def test_schedule_every_stop_cancels_future_fires():
    engine = Engine()
    ticks = []
    handle = engine.schedule_every(10, lambda: ticks.append(engine.now))

    def stop():
        handle.stop()

    engine.schedule_fast(35, stop)
    engine.schedule_fast(100, lambda: None)
    engine.run(until=100)
    assert ticks == [10, 20, 30]


def test_schedule_every_callback_can_stop_itself():
    engine = Engine()
    ticks = []
    handle = engine.schedule_every(5, lambda: (
        ticks.append(engine.now),
        handle.stop() if len(ticks) >= 2 else None))
    engine.schedule_fast(100, lambda: None)
    engine.run(until=100)
    assert ticks == [5, 10]


def test_schedule_every_rejects_nonpositive_interval():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule_every(0, lambda: None)
