"""Empirical flow-size distributions."""

import random

import pytest

from repro.workload.distributions import (
    DISTRIBUTIONS,
    EmpiricalCDF,
    cache_follower,
    data_mining,
    get_distribution,
    web_search,
)


def test_all_named_distributions_construct():
    for name in DISTRIBUTIONS:
        dist = get_distribution(name)
        assert dist.mean() > 0


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError):
        get_distribution("nope")


def test_quantile_endpoints():
    dist = cache_follower()
    assert dist.quantile(0.0) == 500
    assert dist.quantile(1.0) == 10_000_000


def test_quantile_monotone():
    dist = web_search()
    values = [dist.quantile(i / 100) for i in range(101)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_quantile_hits_breakpoints():
    dist = cache_follower()
    assert dist.quantile(0.5) == pytest.approx(24_000, rel=1e-6)


def test_cache_follower_is_mice_dominated():
    # Paper §4.2: 50% of cache-follower flows send less than 24 KB.
    dist = cache_follower()
    rng = random.Random(0)
    samples = [dist.sample(rng) for _ in range(4000)]
    under_24k = sum(size <= 24_000 for size in samples) / len(samples)
    assert 0.45 <= under_24k <= 0.55


def test_data_mining_is_heavy_tailed():
    dist = data_mining()
    rng = random.Random(0)
    samples = [dist.sample(rng) for _ in range(4000)]
    assert sum(s < 10_000 for s in samples) / len(samples) > 0.6
    assert max(samples) > 10_000_000


def test_sampling_respects_seed():
    dist = web_search()
    a = [dist.sample(random.Random(5)) for _ in range(10)]
    b = [dist.sample(random.Random(5)) for _ in range(10)]
    assert a == b


def test_samples_are_positive_ints():
    dist = data_mining()
    rng = random.Random(1)
    for _ in range(100):
        value = dist.sample(rng)
        assert isinstance(value, int) and value >= 1


def test_truncation_caps_tail_and_lowers_mean():
    full = data_mining()
    capped = full.truncated(1_000_000)
    rng = random.Random(2)
    assert max(capped.sample(rng) for _ in range(2000)) <= 1_000_000
    assert capped.mean() < full.mean()


def test_truncation_cap_below_min_rejected():
    with pytest.raises(ValueError):
        cache_follower().truncated(10)


def test_cdf_validation():
    with pytest.raises(ValueError):
        EmpiricalCDF([(100, 0.0)])  # too few points
    with pytest.raises(ValueError):
        EmpiricalCDF([(100, 0.0), (50, 1.0)])  # values not increasing
    with pytest.raises(ValueError):
        EmpiricalCDF([(100, 0.5), (200, 1.0)])  # doesn't start at 0
    with pytest.raises(ValueError):
        EmpiricalCDF([(100, 0.0), (200, 0.9)])  # doesn't end at 1
    with pytest.raises(ValueError):
        EmpiricalCDF([(0, 0.0), (200, 1.0)])  # non-positive size


def test_mean_matches_sampled_mean():
    dist = cache_follower()
    rng = random.Random(3)
    sampled = sum(dist.sample(rng) for _ in range(20_000)) / 20_000
    assert sampled == pytest.approx(dist.mean(), rel=0.15)


def _fresh_quadrature(dist):
    """The mean as the uncached loop computes it, step by step."""
    steps = 4096
    total = 0.0
    for i in range(steps):
        total += dist.quantile((i + 0.5) / steps)
    return total / steps


@pytest.mark.parametrize(
    "dist", [make() for make in DISTRIBUTIONS.values()]
    + [get_distribution("web_search", truncate_at=2_000_000)],
    ids=lambda dist: dist.name)
def test_memoised_mean_is_the_quadrature_bit_for_bit(dist):
    # ``_mean_gap_ns`` is derived from it and reaches the run digest.
    assert dist.mean() == _fresh_quadrature(dist)
    assert dist.mean() == _fresh_quadrature(dist)  # second read: the memo


def test_mean_is_computed_once_per_set_of_breakpoints(monkeypatch):
    calls = []
    real = EmpiricalCDF.quantile
    monkeypatch.setattr(
        EmpiricalCDF, "quantile",
        lambda self, u: calls.append(u) or real(self, u))
    points = [(10, 0.0), (70, 0.5), (903, 1.0)]  # no other test's
    first = EmpiricalCDF(points, name="a").mean()
    evaluated = len(calls)
    assert evaluated > 0
    assert EmpiricalCDF(points, name="b").mean() == first
    assert len(calls) == evaluated  # same breakpoints: no second quadrature
    assert EmpiricalCDF(points, name="a").truncated(500).mean() < first
    assert len(calls) > evaluated   # other breakpoints: their own
