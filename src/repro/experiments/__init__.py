"""The experiment harness: configuration, runner, and sweep helpers.

:mod:`repro.experiments.config` holds ``ExperimentConfig`` and its
profiles, :mod:`repro.experiments.runner` runs one config,
:mod:`repro.experiments.parallel` runs many, and
:mod:`repro.experiments.digest` fingerprints configs and results::

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig.bench_profile(system="vertigo",
                                            transport="dctcp",
                                            bg_load=0.5, incast_load=0.25)
    result = run_experiment(config)
    print(result.metrics.mean_qct_s())
"""
