#!/usr/bin/env python3
"""Host-component demo: the marking + ordering shims on a raw packet
stream, without any network simulation.

This is the paper's §3.1/§3.3 datapath in isolation: a sender-side
marking component tags packets with their remaining flow size (and boosts
retransmissions reversibly), a lossy/reordering "wire" scrambles them,
and the receiver-side ordering component restores the order before the
transport would see them.

Usage::

    python examples/ordering_shim_demo.py
"""

from repro.core.marking import MarkingComponent
from repro.core.ordering import OrderingComponent
from repro.net.packet import data_packet
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import fmt_time, usecs

RNG_STREAMS = ("wire",)

FLOW_ID = 1
FLOW_SIZE = 14_600   # ten 1460-byte packets
MSS = 1460


def main() -> None:
    engine = Engine()
    delivered = []
    marking = MarkingComponent()
    ordering = OrderingComponent(engine, delivered.append,
                                 timeout_ns=usecs(360))

    marking.register_flow(FLOW_ID, FLOW_SIZE)
    packets = []
    for seq in range(0, FLOW_SIZE, MSS):
        packet = data_packet(1, 2, FLOW_ID, seq, MSS)
        marking.mark(packet)
        packets.append(packet)
    print("marked packets (seq -> RFS, first-flag):")
    for packet in packets:
        print(f"  seq={packet.seq:6d}  rfs={packet.flowinfo.rfs:6d}"
              f"  first={packet.flowinfo.first}")

    # Scramble the wire: shuffle arrival order, drop one packet, and
    # deliver its boosted re-transmission late.
    rng = RngRegistry(0).stream("wire")
    wire = packets[:]
    lost = wire.pop(4)
    rng.shuffle(wire)
    retx = data_packet(1, 2, FLOW_ID, lost.seq, MSS)
    marking.mark(retx)  # detected as a duplicate -> boosted
    print(f"\npacket seq={lost.seq} dropped; re-transmission carries "
          f"rfs={retx.flowinfo.rfs} (boosted from "
          f"{retx.flowinfo.original_rfs()}), retcnt={retx.flowinfo.retcnt}")

    for index, packet in enumerate(wire):
        engine.schedule(usecs(10 * (index + 1)), ordering.on_packet, packet)
    engine.schedule(usecs(10 * (len(wire) + 20)), ordering.on_packet, retx)
    engine.run()

    print(f"\ndelivered to transport at t={fmt_time(engine.now)}:")
    seqs = [packet.seq for packet in delivered]
    print(f"  arrival order on the wire : "
          f"{[p.seq for p in wire] + [retx.seq]}")
    print(f"  release order to transport: {seqs}")
    in_order = [s for s in seqs if s != lost.seq]
    print(f"  in-order except the timed-out gap: "
          f"{in_order == sorted(in_order)}")
    print(f"  reordering timeouts fired: {ordering.timeouts_fired}")


if __name__ == "__main__":
    main()
