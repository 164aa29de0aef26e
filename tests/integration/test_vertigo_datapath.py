"""Vertigo's own datapath: what one packet may cost, and what the
marking filter must agree with.

A small fixed-seed vertigo+dctcp incast with drops and re-transmissions
is run once; the tests read it from different sides.  The call budgets
say "per-run constants are resolved once": an unboosted tag is read off
the wire, a power-of-two draw is ``getrandbits``, and a ranked port's
sorted array is its own.
"""

import random
import sys

import pytest

from repro.analysis import sanitize as _sanitize
from repro.core import cuckoo
from repro.core.flowinfo import FlowInfo
from repro.core.ordering import OrderingComponent
from repro.core.scheduler import RankQueue
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.net.queues import RankedQueue
from repro.sim.units import MILLISECOND


def _config():
    return ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.5, incast_load=0.35,
        sim_time_ns=10 * MILLISECOND, seed=5)


@pytest.fixture(scope="module")
def spied_run():
    """The run, with hash calls, filter deletes, ``sample`` and
    ``_randbelow`` callers, un-rotations and ``RankQueue`` calls
    recorded."""
    record = {"hashes": 0, "deletes": 0, "filters": 0, "samplers": set(),
              "randbelow": set(), "unrotated": [], "boosted_arrivals": 0,
              "rank_queue_calls": 0}
    real_hash, real_delete = cuckoo._hash64, cuckoo.CuckooFilter.delete
    real_init, real_sample = cuckoo.CuckooFilter.__init__, random.Random.sample
    real_randbelow = random.Random._randbelow
    real_original_rfs = FlowInfo.original_rfs
    real_on_packet = OrderingComponent.on_packet

    def spy_hash(value):
        record["hashes"] += 1
        return real_hash(value)

    def spy_delete(self, item):
        record["deletes"] += 1
        return real_delete(self, item)

    def spy_init(self, *args, **kwargs):
        record["filters"] += 1
        real_init(self, *args, **kwargs)

    def spy_sample(self, *args, **kwargs):
        record["samplers"].add(sys._getframe(1).f_code.co_filename)
        return real_sample(self, *args, **kwargs)

    def spy_randbelow(self, n):
        record["randbelow"].add(sys._getframe(1).f_code.co_filename)
        return real_randbelow(self, n)

    def spy_original_rfs(self, *args):
        record["unrotated"].append(self.retcnt)
        return real_original_rfs(self, *args)

    def spy_on_packet(self, packet):
        info = packet.flowinfo
        record["boosted_arrivals"] += info is not None and info.retcnt > 0
        real_on_packet(self, packet)

    def counted(method):
        def spy(self, *args, **kwargs):
            record["rank_queue_calls"] += 1
            return method(self, *args, **kwargs)
        return spy

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cuckoo, "_hash64", spy_hash)
        patch.setattr(cuckoo.CuckooFilter, "delete", spy_delete)
        patch.setattr(cuckoo.CuckooFilter, "__init__", spy_init)
        patch.setattr(random.Random, "sample", spy_sample)
        patch.setattr(random.Random, "_randbelow", spy_randbelow)
        patch.setattr(FlowInfo, "original_rfs", spy_original_rfs)
        patch.setattr(OrderingComponent, "on_packet", spy_on_packet)
        for name, method in vars(RankQueue).items():
            if callable(method):
                patch.setattr(RankQueue, name, counted(method))
        record["result"] = run_experiment(_config())
    return record


def _markers(result):
    return [host.marking for host in result.network.hosts]


def test_the_run_exercises_what_is_asserted(spied_run):
    result = spied_run["result"]
    counters = result.metrics.counters
    assert counters.retransmissions > 0 and counters.deflections > 0
    assert sum(m.retransmissions_detected for m in _markers(result)) \
        == counters.retransmissions
    assert spied_run["deletes"] > 0


def test_hash_budget_per_marked_packet(spied_run):
    marked = sum(m.packets_marked for m in _markers(spied_run["result"]))
    # One salt per filter at build time; everything else is per packet.
    hashes = spied_run["hashes"] - spied_run["filters"]
    deletes = spied_run["deletes"]
    assert marked + deletes <= hashes <= 2 * marked + deletes
    # The second probe is the false-positive path only.
    assert hashes - marked - deletes <= marked // 100


def test_forwarding_never_calls_sample_at_two_choices(spied_run):
    params = spied_run["result"].config.system.vertigo_switch
    assert params.fw_choices == 2 and params.def_choices == 2
    assert not [name for name in spied_run["samplers"]
                if "forwarding" in name]


def test_forwarding_never_calls_randbelow_at_two_choices(spied_run):
    # Each draw is Random._randbelow's getrandbits loop, made in place.
    assert not [name for name in spied_run["randbelow"]
                if "forwarding" in name]


def test_only_boosted_arrivals_are_unrotated(spied_run):
    # retcnt == 0 carries the original RFS: the shim reads it as is.
    unrotated = spied_run["unrotated"]
    assert unrotated and all(retcnt > 0 for retcnt in unrotated)
    assert len(unrotated) == spied_run["boosted_arrivals"]


def test_ranked_ports_keep_their_own_sorted_array(spied_run):
    network = spied_run["result"].network
    assert all(isinstance(port.queue, RankedQueue)
               for switch in network.switches.values()
               for port in switch.ports)
    assert spied_run["rank_queue_calls"] == 0


def test_filter_agrees_with_the_exact_tables(spied_run):
    unfinished = 0
    for marking in _markers(spied_run["result"]):
        remembered = sum(len(state.retcnt)
                         for state in marking._flows.values())
        assert len(marking._filter) == remembered
        unfinished += len(marking._flows)
        for flow_id in list(marking._flows):
            marking.flow_done(flow_id)
        assert len(marking._filter) == 0
        assert not marking._filter._stash
    assert unfinished > 0  # the run stopped mid-flight


def test_agreement_is_a_sanitizer_check_at_flow_done():
    with _sanitize.scoped(True):
        result = run_experiment(_config())
        marking = next(m for m in _markers(result) if m._flows)
        marking._filter.insert(0xDEAD)  # a fingerprint no table remembers
        with pytest.raises(_sanitize.SanitizerError, match="fingerprints"):
            marking.flow_done(next(iter(marking._flows)))
