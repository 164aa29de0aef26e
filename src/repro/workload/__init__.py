"""Workload generation: a pluggable, composable generator subsystem.

Generators (empirical background traffic, incast queries, coflow
shuffles, duty-cycle bursts) are described by frozen
:class:`~repro.workload.spec.WorkloadSpec` entries, resolved by the
registry (:mod:`repro.workload.registry`), and pick uniformly random
endpoints (:mod:`repro.workload.matrix`).
"""
