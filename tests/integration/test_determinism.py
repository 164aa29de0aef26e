"""End-to-end determinism: identical seeds produce byte-identical runs.

The digest (:func:`repro.experiments.digest.run_digest`) covers
everything a figure could be built from — the summary row, per-flow and
per-query records, drop reasons, and the number of events executed.  The
runs execute in the same process, so any state leaking across runs
(module globals, shared counters, RNG reuse) breaks the test — this is
the oracle for process-lifetime state that no lint rule looks for, so
the config must exercise every generator (incast queries included).
Cross-process agreement is covered by
``tests/integration/test_parallel_sweep.py``.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import run_digest as _digest
from repro.experiments.runner import run_experiment
from repro.sim.units import MILLISECOND


def _config(seed: int, **overrides) -> ExperimentConfig:
    config = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.2, incast_qps=400,
        incast_scale=6, sim_time_ns=15 * MILLISECOND, seed=seed)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def test_same_seed_is_byte_identical():
    first = run_experiment(_config(seed=7))
    second = run_experiment(_config(seed=7))
    # A class-level query counter only shows if queries are issued.
    assert len(first.metrics.queries) > 0
    assert _digest(first) == _digest(second)


def test_different_seeds_differ():
    base = _digest(run_experiment(_config(seed=7)))
    other = _digest(run_experiment(_config(seed=8)))
    assert base != other


def test_sanitizer_does_not_perturb_results():
    plain = _digest(run_experiment(_config(seed=7)))
    checked = _digest(run_experiment(_config(seed=7, sanitize=True)))
    assert plain == checked
