"""Workload generation: a pluggable, composable generator subsystem.

Generators (empirical background traffic, incast queries, coflow
shuffles, duty-cycle bursts) are described by frozen
:class:`~repro.workload.spec.WorkloadSpec` entries, resolved by the
registry (:mod:`repro.workload.registry`), and pick uniformly random
endpoints (:mod:`repro.workload.matrix`).
"""

from repro.workload.distributions import (
    DISTRIBUTIONS,
    EmpiricalCDF,
    cache_follower,
    data_mining,
    web_search,
)
from repro.workload.spec import (
    BackgroundSpec,
    CoflowSpec,
    DutyCycleSpec,
    IncastSpec,
    WORKLOAD_KINDS,
    WorkloadParseError,
    WorkloadSpec,
    parse_workload,
    parse_workloads,
    specs_from_legacy,
)
from repro.workload.incast import IncastApp
from repro.workload.coflow import CoflowApp
from repro.workload.dutycycle import DutyCycleTraffic
from repro.workload.registry import (
    GENERATOR_BUILDERS,
    WorkloadContext,
    build_workload,
)

__all__ = [
    "EmpiricalCDF",
    "DISTRIBUTIONS",
    "cache_follower",
    "data_mining",
    "web_search",
    "IncastApp",
    "CoflowApp",
    "DutyCycleTraffic",
    "WorkloadSpec",
    "BackgroundSpec",
    "IncastSpec",
    "CoflowSpec",
    "DutyCycleSpec",
    "WORKLOAD_KINDS",
    "WorkloadParseError",
    "parse_workload",
    "parse_workloads",
    "specs_from_legacy",
    "GENERATOR_BUILDERS",
    "WorkloadContext",
    "build_workload",
]
