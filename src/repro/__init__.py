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

This module is the one facade: it re-exports the blessed public surface
(everything in ``__all__``).  Every other name is imported from the
module that defines it, and its path may change between releases.  Each
name loads its defining module on first access, so ``import repro``
compiles no simulator module: a run loads what its config names.
"""

from importlib import import_module

__version__ = "2.0.0"

#: Name -> the module that defines it, imported on first access.
_LAZY = {
    "ExperimentConfig": "repro.experiments.config",
    "run_digest": "repro.experiments.digest",
    "run_many": "repro.experiments.parallel",
    "RunReport": "repro.experiments.report",
    "RunResult": "repro.experiments.runner",
    "run_experiment": "repro.experiments.runner",
    "FaultSpec": "repro.faults.spec",
    "parse_faults": "repro.faults.spec",
    "FatTree": "repro.net.topology",
    "LeafSpine": "repro.net.topology",
    "SupervisorPolicy": "repro.runtime.policy",
    "SweepReport": "repro.runtime.supervisor",
    "run_supervised": "repro.runtime.supervisor",
    "TraceConfig": "repro.trace.config",
    "BackgroundSpec": "repro.workload.spec",
    "CoflowSpec": "repro.workload.spec",
    "DutyCycleSpec": "repro.workload.spec",
    "IncastSpec": "repro.workload.spec",
    "WorkloadSpec": "repro.workload.spec",
    "parse_workloads": "repro.workload.spec",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name]), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


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
