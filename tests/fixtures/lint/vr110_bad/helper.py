"""VR001 bad, helper half: the actual global-entropy sink."""

import random


def pick_port(ports):
    return random.choice(ports)
