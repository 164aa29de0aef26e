"""VR001 bad, entry half: a forwarding-policy method reaches a global
``random`` draw through the helper module.  No rule follows the call;
VR001 flags the draw itself, where it stands in ``helper.py``.
"""

from helper import pick_port


class ForwardingPolicy:
    pass


class SprayPolicy(ForwardingPolicy):
    def forward(self, packet, ports):
        return pick_port(ports)
