"""Serial-vs-parallel equivalence of the sweep executor.

Parallel execution must be invisible in the results: the determinism
digest of every point matches a serial run byte for byte, results come
back in submission order, and the runtime sanitizer follows the sweep
into the worker processes.
"""

from dataclasses import replace

from repro.analysis import sanitize
from repro.experiments.digest import run_digest
from repro.experiments.parallel import run_many
from repro.experiments.config import ExperimentConfig
from repro.sim.units import MILLISECOND


def _configs(n=3, **overrides):
    return [replace(ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.2,
        incast_qps=60, incast_scale=6, sim_time_ns=5 * MILLISECOND,
        seed=seed), **overrides) for seed in range(1, n + 1)]


def test_parallel_digests_match_serial():
    serial = [run_digest(r) for r in run_many(_configs(), jobs=1)]
    parallel = [run_digest(r) for r in run_many(_configs(), jobs=2)]
    assert serial == parallel
    assert len(set(serial)) == len(serial)  # distinct seeds really ran


def test_parallel_results_keep_submission_order():
    results = run_many(_configs(3), jobs=2)
    assert [r.config.seed for r in results] == [1, 2, 3]


def test_portable_results_are_row_complete():
    serial = run_many(_configs(1, sim_time_ns=2 * MILLISECOND) * 2, jobs=1)
    transferred = run_many(_configs(1, sim_time_ns=2 * MILLISECOND) * 2,
                           jobs=2)
    for live, portable in zip(serial, transferred):
        assert portable.network is None  # really crossed the boundary
        assert portable.row() == live.row()
        assert portable.engine.events_executed \
            == live.engine.events_executed


def test_sanitizer_follows_sweep_into_workers():
    with sanitize.scoped(True):
        checked = [run_digest(r) for r in run_many(_configs(2), jobs=2)]
    plain = [run_digest(r) for r in run_many(_configs(2), jobs=1)]
    assert checked == plain
