"""The experiment harness: configuration, runner, and sweep helpers.

This is the top-level entry point most users want::

    from repro.experiments import ExperimentConfig, run_experiment

    config = ExperimentConfig.bench_profile(system="vertigo",
                                            transport="dctcp",
                                            bg_load=0.5, incast_load=0.25)
    result = run_experiment(config)
    print(result.metrics.mean_qct_s())
"""

from repro.experiments.config import (
    BENCH_SYSTEMS,
    ExperimentConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.experiments.digest import config_digest, run_digest, sweep_digest
from repro.experiments.parallel import resolve_jobs, run_many
from repro.experiments.report import RunReport
from repro.experiments.runner import RunResult, run_experiment
from repro.experiments.sweeps import format_table

__all__ = [
    "ExperimentConfig",
    "SystemConfig",
    "WorkloadConfig",
    "BENCH_SYSTEMS",
    "RunResult",
    "RunReport",
    "run_experiment",
    "run_digest",
    "config_digest",
    "sweep_digest",
    "run_many",
    "resolve_jobs",
    "format_table",
]
