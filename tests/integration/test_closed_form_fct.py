"""First-principles oracle: a flow that fits in the initial window, alone
on an idle bench fabric, completes at the store-and-forward closed form.

The expected time is derived here from the fabric's parameters, not
from a run.  Every segment leaves the sender at time 0 (the window
admits them all) and each link serializes a packet in
``ceil(wire_bits * 1e9 / rate)`` ns, then propagates it.  For ``n``
equal packets over links with serialization ``s_j`` and propagation
``d_j``, the last one arrives at ``sum(s_j + d_j) + (n - 1) * max(s_j)``:
the first packet's path time, then one bottleneck slot for each packet
pipelined behind it.  A single segment of any size is the ``n = 1``
case.  The receiver completes the flow on that arrival.

Reno and DCTCP only: Swift and DCQCN pace their transmissions, so their
segments do not all leave at time 0 and this closed form does not apply.
"""

import pytest

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.net.packet import HEADER_BYTES, MSS
from repro.sim.units import SECOND
from repro.transport.base import INIT_CWND

#: Same leaf (host - leaf - host) and across the fabric (host - leaf -
#: spine - leaf - host) on the bench's 4-hosts-per-leaf leaf-spine.
PATHS = {"same-leaf": (0, 1), "cross-fabric": (0, 4)}


def _config(transport):
    return ExperimentConfig.bench_profile(system="ecmp", transport=transport,
                                          workload=[], seed=1)


def _links(config, src, dst):
    """``(rate_bps, delay_ns)`` of every link from ``src`` to ``dst``."""
    params = config.network
    host = (params.host_rate_bps, params.host_link_delay_ns)
    fabric = (params.fabric_rate_bps, params.fabric_link_delay_ns)
    topology = config.topology
    if topology.host_tor(src) == topology.host_tor(dst):
        return [host, host]
    return [host, fabric, fabric, host]


def _closed_form(links, wire_bytes, n_packets):
    serialization = [-(-wire_bytes * 8 * SECOND // rate)
                     for rate, _ in links]
    first = sum(serialization) + sum(delay for _, delay in links)
    return first + (n_packets - 1) * max(serialization)


def _fct(config, src, dst, size):
    world = runner._build_world(config)
    world.kernel.open_flow(src, dst, size)
    world.engine.run()
    (record,) = world.metrics.flows.values()
    assert record.end_ns is not None and record.bytes_delivered == size
    assert world.metrics.counters.retransmissions == 0
    return record.end_ns - record.start_ns


@pytest.mark.parametrize("transport", ["reno", "dctcp"])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_a_window_of_full_segments_pipelines_behind_the_first(transport,
                                                              path):
    config = _config(transport)
    src, dst = PATHS[path]
    links = _links(config, src, dst)
    assert int(INIT_CWND) == 10
    for n_packets in (1, 2, 7, 10):
        expected = _closed_form(links, MSS + HEADER_BYTES, n_packets)
        assert _fct(config, src, dst, n_packets * MSS) == expected, \
            n_packets


@pytest.mark.parametrize("transport", ["reno", "dctcp"])
@pytest.mark.parametrize("size", [1, 537, 1459])
def test_a_single_short_segment_pays_each_link_once(transport, size):
    config = _config(transport)
    src, dst = PATHS["cross-fabric"]
    links = _links(config, src, dst)
    assert _fct(config, src, dst, size) \
        == _closed_form(links, size + HEADER_BYTES, 1)
