"""Digest discipline and accuracy validation for hybrid fidelity.

The fidelity engine changes *how fast* a run executes, never *whether
it is deterministic*: a fixed config yields a fixed digest, serial and
parallel sweeps agree byte for byte, the ``fidelity`` config block is a
digest input, and fault-forced demotions replay identically.

The accuracy contract (documented in DESIGN.md, "Hybrid fidelity"):
on the reference instance and on an 80-server fabric, hybrid QCT/FCT
p50 stays within 25% and p99 within 40% of the packet-mode run while
staying dominantly analytic, compared over the flows/queries
completed by *both* runs (the analytic path completes more of the
tail, so comparing each run's own completed population would conflate
censoring with model error).
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import run_digest
from repro.experiments.parallel import run_many
from repro.experiments.runner import run_experiment
from repro.faults.spec import FaultSpec
from repro.metrics.stats import percentile
from repro.net.fidelity import FidelityConfig
from repro.net.topology import LeafSpine
from repro.sim.units import MILLISECOND, mbps

#: Validation tolerances (fractional) for the matched-population
#: comparison; see DESIGN.md "Hybrid fidelity".
P50_TOLERANCE = 0.25
P99_TOLERANCE = 0.40


def _config(mode, sim_ms=5, seed=1, faults=(), **fidelity_kwargs):
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.2,
        incast_qps=60, incast_scale=6, sim_time_ns=sim_ms * MILLISECOND,
        seed=seed, faults=faults)
    return dataclasses.replace(
        config, fidelity=FidelityConfig(mode=mode, **fidelity_kwargs))


def _reference_config(mode):
    """The perf harness's reference instance (50% bg + 25% incast)."""
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.5,
        incast_load=0.25, incast_scale=12, sim_time_ns=40 * MILLISECOND,
        seed=1)
    return dataclasses.replace(config, fidelity=FidelityConfig(mode=mode))


def _scale_config(mode):
    """80 servers: 2.5x the bench fabric's hosts per leaf.

    The fabric rate scales with the fan-in (160 -> 400 Mbps) so uplink
    capacity stays at the bench profile's 0.8x of leaf host capacity;
    past saturation neither fidelity models anything useful (packet
    mode lives in RTO stalls there).
    """
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.3,
        incast_load=0.15, incast_scale=12, sim_time_ns=200 * MILLISECOND,
        topology=LeafSpine(n_spines=4, n_leaves=8, hosts_per_leaf=10),
        seed=1)
    network = dataclasses.replace(config.network, fabric_rate_bps=mbps(400))
    return dataclasses.replace(config, network=network,
                               fidelity=FidelityConfig(mode=mode))


# -- digest discipline --------------------------------------------------------

def test_hybrid_same_config_twice_is_byte_identical():
    first = run_experiment(_config("hybrid"))
    second = run_experiment(_config("hybrid"))
    assert first.fidelity["analytic_rounds"] > 0  # fast path really ran
    assert run_digest(first) == run_digest(second)


def test_fidelity_block_is_a_digest_input():
    digests = {
        mode: run_digest(run_experiment(_config(mode)))
        for mode in ("packet", "flow", "hybrid")
    }
    assert len(set(digests.values())) == 3
    # Threshold changes inside the block move the digest too (they are
    # policy inputs even when the transition counts end up equal).
    tweaked = run_digest(run_experiment(_config("hybrid",
                                                demote_shares=63)))
    assert tweaked != digests["hybrid"]


def test_packet_mode_carries_no_fidelity_section():
    result = run_experiment(_config("packet"))
    assert result.fidelity is None
    assert result.report().to_dict()["fidelity"] is None


def test_hybrid_sweep_serial_equals_parallel():
    def configs():
        return [_config("hybrid", seed=seed) for seed in (1, 2, 3)]

    serial = [run_digest(r) for r in run_many(configs(), jobs=1)]
    parallel = [run_digest(r) for r in run_many(configs(), jobs=2)]
    assert serial == parallel
    assert len(set(serial)) == 3  # distinct seeds really ran


def test_fault_mid_flow_forces_demotion_and_stays_deterministic():
    faults = (FaultSpec(kind="down", link=("spine0", "leaf0"),
                        at_ns=2 * MILLISECOND),)

    def run():
        return run_experiment(_config("hybrid", faults=faults))

    first, second = run(), run()
    fidelity = first.fidelity
    # The downed cable demoted (and pinned) links in both directions.
    assert fidelity["demotions"] >= 1
    assert fidelity["pinned_links"] >= 1
    assert fidelity["analytic_links_at_end"] < fidelity["links"]
    # ... and the whole run, conversions included, replays identically.
    assert run_digest(first) == run_digest(second)


def test_fault_pins_in_flow_mode_too():
    faults = (FaultSpec(kind="down", link=("spine1", "leaf1"),
                        at_ns=2 * MILLISECOND),)
    result = run_experiment(_config("flow", faults=faults))
    assert result.fidelity["pinned_links"] >= 1


# -- accuracy validation (fidelity sweep) -------------------------------------

def _matched_quantiles(packet_records, hybrid_records, attr):
    packet_ns = {key: getattr(record, attr)
                 for key, record in packet_records.items()
                 if getattr(record, attr) is not None}
    hybrid_ns = {key: getattr(record, attr)
                 for key, record in hybrid_records.items()
                 if getattr(record, attr) is not None}
    matched = sorted(set(packet_ns) & set(hybrid_ns))
    assert len(matched) >= 30, "matched population too small to compare"
    packet_sorted = sorted(packet_ns[key] for key in matched)
    hybrid_sorted = sorted(hybrid_ns[key] for key in matched)
    return {
        point: (percentile(packet_sorted, point),
                percentile(hybrid_sorted, point))
        for point in (50, 99)
    }


@pytest.mark.parametrize("instance", [_reference_config, _scale_config],
                         ids=["ref", "80-host"])
def test_fidelity_sweep_hybrid_matches_packet_within_tolerance(instance):
    packet = run_experiment(instance("packet"))
    hybrid = run_experiment(instance("hybrid"))
    assert hybrid.fidelity["analytic_residency_permille"] >= 900

    tolerances = {50: P50_TOLERANCE, 99: P99_TOLERANCE}
    for attr, records in (
            ("fct_ns", (packet.metrics.flows, hybrid.metrics.flows)),
            ("qct_ns", (packet.metrics.queries, hybrid.metrics.queries))):
        quantiles = _matched_quantiles(records[0], records[1], attr)
        for point, (packet_q, hybrid_q) in quantiles.items():
            error = abs(hybrid_q - packet_q) / packet_q
            assert error <= tolerances[point], (
                f"{attr} p{point}: packet {packet_q} vs hybrid "
                f"{hybrid_q} ({100 * error:.1f}% > "
                f"{100 * tolerances[point]:.0f}% tolerance)")


# -- metamorphic: a hybrid run that never goes analytic is packet mode --------

def _flow_tuples(result):
    return [(f.flow_id, f.src, f.dst, f.size, f.start_ns, f.end_ns,
             f.bytes_delivered, f.is_incast, f.query_id, f.retransmissions)
            for f in sorted(result.metrics.flows.values(),
                            key=lambda f: f.flow_id)]


def _query_tuples(result):
    return [(q.query_id, q.client, q.start_ns, q.n_flows, q.flows_done,
             q.end_ns)
            for q in sorted(result.metrics.queries.values(),
                            key=lambda q: q.query_id)]


@pytest.mark.filterwarnings("ignore:fidelity demotion cascade")
@pytest.mark.parametrize("system,transport", [
    ("vertigo", "dctcp"), ("ecmp", "reno"), ("dibs", "dctcp")])
def test_hybrid_that_demotes_every_path_is_packet_mode(system, transport):
    """``demote_shares=1`` demotes every link of a path when its flow is
    adopted (quiet links promote back at epochs, the next adoption
    demotes them again), so no round is ever analytic and the controller
    may only watch: same flows, queries, drops and summary row as packet
    mode, at the cost of exactly its own epoch ticks."""
    sim_time_ns = 10 * MILLISECOND

    def config(**fidelity_kwargs):
        base = ExperimentConfig.bench_profile(
            system=system, transport=transport, bg_load=0.4,
            incast_load=0.3, incast_scale=10, sim_time_ns=sim_time_ns,
            seed=1)
        return dataclasses.replace(
            base, fidelity=FidelityConfig(**fidelity_kwargs))

    packet = run_experiment(config(mode="packet"))
    hybrid = run_experiment(config(mode="hybrid", demote_shares=1))
    fidelity = hybrid.fidelity
    assert fidelity["analytic_rounds"] == 0
    assert fidelity["demotions"] > 0 and fidelity["promotions"] > 0
    assert packet.metrics.counters.forwarded > 5_000

    flows, hybrid_flows = _flow_tuples(packet), _flow_tuples(hybrid)
    differing = [pair for pair in zip(flows, hybrid_flows)
                 if pair[0] != pair[1]]
    assert not differing, f"first differing flow: {differing[0]}"
    assert len(flows) == len(hybrid_flows)
    assert _query_tuples(hybrid) == _query_tuples(packet)
    assert hybrid.metrics.counters.drops == packet.metrics.counters.drops
    # Canonical text: an undefined mean is NaN in both rows.
    assert repr(hybrid.row()) == repr(packet.row())
    ticks = sim_time_ns // hybrid.network.fidelity.promote_epoch_ns
    assert ticks > 0
    assert hybrid.engine.events_executed \
        == packet.engine.events_executed + ticks
