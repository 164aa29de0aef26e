"""repro — reproduction of "Burst-tolerant Datacenter Networks with
Vertigo" (Abdous, Sharafzadeh, Ghorbani — CoNEXT 2021).

A from-scratch, pure-Python packet-level datacenter network simulator
implementing the Vertigo selective-deflection design, its baselines
(ECMP, DRILL, DIBS), three transports (TCP Reno, DCTCP, Swift), leaf-spine
and fat-tree topologies, and the paper's workloads and experiments.

Quickstart — build an :class:`ExperimentConfig` from a profile, run it,
read the report::

    from repro import ExperimentConfig, run_experiment

    config = ExperimentConfig.bench_profile(system="vertigo",
                                            transport="dctcp",
                                            bg_load=0.5, incast_load=0.25)
    result = run_experiment(config)
    print(result.report().row())

This module re-exports the blessed public surface (everything in
``__all__``); anything else is an internal layer whose import path may
change between releases.
"""

from repro.experiments import (
    ExperimentConfig,
    RunReport,
    RunResult,
    run_digest,
    run_experiment,
    run_many,
)
from repro.faults import FaultSpec, parse_faults
from repro.net import FatTree, LeafSpine
from repro.runtime import SupervisorPolicy, SweepReport, run_supervised
from repro.trace import TraceConfig
from repro.workload import (
    BackgroundSpec,
    CoflowSpec,
    DutyCycleSpec,
    IncastSpec,
    WorkloadSpec,
    parse_workloads,
)

__version__ = "2.0.0"

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "RunReport",
    "run_experiment",
    "run_digest",
    "run_many",
    "run_supervised",
    "SweepReport",
    "SupervisorPolicy",
    "TraceConfig",
    "FaultSpec",
    "parse_faults",
    "WorkloadSpec",
    "BackgroundSpec",
    "IncastSpec",
    "CoflowSpec",
    "DutyCycleSpec",
    "parse_workloads",
    "LeafSpine",
    "FatTree",
    "__version__",
]
