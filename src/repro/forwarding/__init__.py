"""Per-packet forwarding and overflow policies.

Each policy implements the full per-packet decision a switch takes:
choosing an egress port among the FIB candidates, and reacting when the
chosen output queue is full.

- :class:`~repro.forwarding.ecmp.EcmpPolicy` — flow-hash path selection,
  tail-drop on overflow (the deployed datacenter default).
- :class:`~repro.forwarding.drill.DrillPolicy` — DRILL (SIGCOMM'17):
  per-packet power-of-``d``-choices-plus-memory micro load balancing,
  tail-drop on overflow.
- :class:`~repro.forwarding.dibs.DibsPolicy` — DIBS (EuroSys'14): ECMP
  path selection, random deflection of the *arriving* packet on overflow.
- :class:`~repro.forwarding.vertigo.VertigoPolicy` — the paper's selective
  deflection: SRPT-ranked queues, power-of-two forwarding and deflection,
  largest-RFS displacement, selective drop under global congestion.
"""
