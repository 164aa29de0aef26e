"""Paper-mechanism integration tests: the *reasons* Vertigo wins.

Each test isolates one §3 mechanism at network scale and checks the
causal claim behind it, not just the headline number.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.forwarding.base import VertigoSwitchParams
from repro.sim.units import MILLISECOND


def _burst_config(system="vertigo", **kwargs):
    defaults = dict(bg_load=0.15, incast_qps=250, incast_scale=12,
                    sim_time_ns=80 * MILLISECOND)
    defaults.update(kwargs)
    if "incast_load" in kwargs:
        defaults.pop("incast_qps", None)
    return ExperimentConfig.bench_profile(system=system,
                                          transport="dctcp", **defaults)


def test_srpt_favors_mice_over_elephants():
    """Mice (small background flows) should finish comparatively faster
    under Vertigo than under FIFO ECMP at the same load."""
    ecmp = run_experiment(_burst_config("ecmp", bg_load=0.5, incast_qps=0))
    vertigo = run_experiment(_burst_config("vertigo", bg_load=0.5,
                                           incast_qps=0))
    mice_ecmp = ecmp.metrics.mean_fct_s(max_size=24_000)
    mice_vertigo = vertigo.metrics.mean_fct_s(max_size=24_000)
    assert mice_vertigo <= mice_ecmp


def test_deflections_happen_at_burst_not_in_idle_network():
    idle = run_experiment(_burst_config(bg_load=0.05, incast_qps=5,
                                        incast_scale=2,
                                        incast_flow_bytes=2000))
    bursty = run_experiment(_burst_config())
    assert idle.metrics.counters.deflections \
        < bursty.metrics.counters.deflections


def test_ordering_shim_reduces_transport_visible_reordering():
    with_shim = run_experiment(_burst_config())
    without = run_experiment(_burst_config(ordering=False))
    assert with_shim.metrics.counters.reordered_arrivals \
        < without.metrics.counters.reordered_arrivals


def test_boosting_rescues_query_completions_under_load():
    """Paper Fig. 11b: without boosting, re-transmitted packets keep
    getting deflected/dropped (large RFS) and queries never finish."""
    boosted = run_experiment(_burst_config(bg_load=0.5, incast_load=0.35))
    unboosted = run_experiment(_burst_config(bg_load=0.5,
                                             incast_load=0.35,
                                             boosting=False))
    assert boosted.metrics.query_completion_pct() \
        > unboosted.metrics.query_completion_pct() + 10


def test_vertigo_drop_reasons_are_congestion_selective():
    result = run_experiment(_burst_config(bg_load=0.6, incast_load=0.35))
    drops = result.metrics.counters.drops
    # Vertigo never tail-drops blindly ("overflow" is the ECMP/DRILL
    # reason); its drops are the selective congestion variants.
    assert "overflow" not in drops
    allowed = {"congestion_drop", "congestion_displaced", "hop_limit",
               "deflection_limit", "selective_drop",
               "no_deflection_target", "host_nic_overflow"}
    assert set(drops) <= allowed


def test_survivors_of_forced_insert_are_small_rfs():
    """After a heavily congested run, ranked queues hold ascending-RFS
    packets and the min is always transmitted first (SRPT invariant)."""
    result = run_experiment(_burst_config(bg_load=0.6, incast_load=0.35))
    from repro.net.queues import RankedQueue
    for name, index, queue in result.network.all_switch_queues():
        assert isinstance(queue, RankedQueue)
        ranks = [p.rank() for p in queue.packets()]
        assert ranks == sorted(ranks), (name, index)


def test_marking_components_saw_every_data_packet():
    result = run_experiment(_burst_config())
    marked = sum(host.marking.packets_marked
                 for host in result.network.hosts)
    assert marked > 0
    retx_detected = sum(host.marking.retransmissions_detected
                        for host in result.network.hosts)
    assert retx_detected <= marked
