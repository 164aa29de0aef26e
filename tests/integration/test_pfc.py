"""Lossless-fabric semantics end to end: PFC, lanes, DCQCN, deadlock.

Covers the PR's behavioural contracts:

- default (auto) headroom really is lossless — XOFF/XON hysteresis plus
  pause-loop headroom absorbs every in-flight byte, zero drops;
- ``headroom_bytes=0`` is honoured literally: post-XOFF arrivals drop
  with reason ``pfc_headroom`` and the drops are reported consistently
  in every surface (legacy counters, per-class counters, PFC summary);
- PFC-enabled runs stay digest-deterministic, serial vs parallel;
- the default config (one lane, PFC off) hashes identically to a config
  that never mentions PFC — the seed-digest regression gate;
- a deadlock is what never drains, not a pause cycle that happens to
  be standing when it is looked at: gates paused at the horizon of an
  up-down fabric are not reported.
"""

from repro.experiments import run_digest, run_experiment, run_many
from repro.experiments.config import ExperimentConfig
from repro.net.pfc import PfcConfig
from repro.sim.units import MILLISECOND
from repro.trace import TraceConfig


def _config(seed=7, system="ecmp", transport="dcqcn", **pfc_kwargs):
    config = ExperimentConfig.bench_profile(
        system=system, transport=transport, bg_load=0.2,
        incast_load=0.1, incast_scale=8, sim_time_ns=10 * MILLISECOND,
        seed=seed)
    if pfc_kwargs:
        config.pfc = PfcConfig(**pfc_kwargs)
    return config


def test_default_headroom_is_lossless_with_real_pauses():
    config = _config(enabled=True, num_classes=2, priority_map=(0, 1))
    config.trace = TraceConfig(level="flow")
    result = run_experiment(config)
    counters = result.metrics.counters
    assert counters.total_drops == 0          # lossless, edge to edge
    pfc = result.pfc
    assert pfc["pause_events"] > 0            # ... not trivially idle
    assert pfc["pause_ns"] > 0
    assert pfc["headroom_drops"] == 0
    assert pfc["pauses"] == sorted(pfc["pauses"])
    # ... and every pause is visible, hop by hop, in the trace.
    kinds = result.trace.counts()
    assert kinds["pfc.pause"] > 0 and kinds["pfc.resume"] > 0


def test_zero_headroom_drops_and_reports_consistently():
    config = _config(enabled=True, xoff_bytes=3_000, xon_bytes=1_500,
                     headroom_bytes=0)
    result = run_experiment(config)
    counters = result.metrics.counters
    assert counters.drops["pfc_headroom"] > 0
    assert result.pfc["headroom_drops"] == counters.drops["pfc_headroom"]
    # Satellite contract: class-keyed drops sum back to legacy totals,
    # reason by reason.
    by_reason = {}
    for (pclass, reason), count in counters.class_drops.items():
        by_reason[reason] = by_reason.get(reason, 0) + count
    assert by_reason == dict(counters.drops)


def test_pfc_sweep_digests_match_serial_vs_parallel():
    def configs():
        return [_config(seed=seed, enabled=True, num_classes=2,
                        priority_map=(0, 1)) for seed in (1, 2)]

    serial = [run_digest(r) for r in run_many(configs(), jobs=1)]
    parallel = [run_digest(r) for r in run_many(configs(), jobs=2)]
    assert serial == parallel
    assert len(set(serial)) == 2


def test_single_lane_pfc_off_reproduces_seed_digest():
    # An explicit-but-unconfigured PfcConfig must not perturb the run
    # or its digest relative to a config that never mentions PFC: the
    # builder constructs the identical single-queue datapath and the
    # digest's "pfc" section stays absent in both.
    baseline = run_experiment(_config(system="vertigo",
                                      transport="dctcp"))
    explicit = run_experiment(_config(system="vertigo",
                                      transport="dctcp",
                                      num_classes=1, priority_map=(0,)))
    assert not explicit.config.pfc.configured
    assert run_digest(explicit) == run_digest(baseline)
    assert explicit.pfc is None and baseline.pfc is None


def test_pfc_run_digest_is_repeatable():
    config_a = _config(enabled=True, num_classes=2, priority_map=(0, 1))
    config_b = _config(enabled=True, num_classes=2, priority_map=(0, 1))
    assert run_digest(run_experiment(config_a)) \
        == run_digest(run_experiment(config_b))


def _lossless_pfc_config(seed=1000):
    """The benchmark ledger's ``lossless-pfc`` point at 10 ms."""
    config = ExperimentConfig.bench_profile(
        system="ecmp", transport="dcqcn", bg_load=0.5, incast_load=0.25,
        incast_scale=12, sim_time_ns=10 * MILLISECOND, seed=seed)
    config.pfc = PfcConfig(enabled=True, num_classes=2, priority_map=(0, 1))
    return config


def test_gates_paused_at_the_horizon_are_not_deadlocks():
    # ECMP on a leaf-spine routes up-down only: every chain of waits ends
    # at a host downlink that nothing pauses, so gates still paused when
    # the horizon cuts the run are mid-episode, not stuck.
    result = run_experiment(_lossless_pfc_config())
    assert result.pfc["paused_at_end"] > 0
    assert "deadlocks" not in result.pfc


def test_transient_pause_cycles_are_not_deadlocks():
    # Vertigo + DCQCN under a tiny XOFF.  A per-tick walk that called any
    # strongly connected set of paused switch-to-switch gates lasting 3
    # ticks a deadlock named a leaf/spine cycle here; on the ledger's
    # lossless-pfc it reported 30 / 25 / 26 / 24 / 14 such "deadlocks" in
    # 60 ms on sub-seeds 1000-1004 at a 100 us tick (0 / 1 / 2 / 1 / 0 at
    # 1 ms).  None of them is one: with PFC on the lanes are unbounded,
    # so Vertigo never deflects and every route stays up-down, and no
    # gate of this run is stuck at its horizon.
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dcqcn", bg_load=0.9,
        incast_load=0.3, incast_scale=16, sim_time_ns=10 * MILLISECOND,
        seed=3)
    config.pfc = PfcConfig(enabled=True, xoff_bytes=2_000, xon_bytes=500)
    result = run_experiment(config)
    assert result.metrics.counters.deflections == 0
    assert result.engine.now == config.sim_time_ns
    assert result.pfc["pause_events"] > 0
    assert "deadlocks" not in result.pfc
