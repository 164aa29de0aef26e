"""Supervision policy: validation and deterministic backoff."""

import pytest

from repro.runtime import SupervisorPolicy


def test_defaults():
    policy = SupervisorPolicy()
    assert policy.max_retries == 2
    assert policy.run_timeout_s is None
    assert policy.backoff_base_s == 0.25
    assert policy.backoff_cap_s == 8.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        SupervisorPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisorPolicy(run_timeout_s=0)
    with pytest.raises(ValueError):
        SupervisorPolicy(backoff_base_s=-0.1)


def test_backoff_is_capped_exponential_with_jitter():
    policy = SupervisorPolicy(backoff_base_s=0.25, backoff_cap_s=2.0)
    rng = policy.backoff_stream()
    for attempt, nominal in ((1, 0.25), (2, 0.5), (3, 1.0), (4, 2.0),
                             (5, 2.0)):  # capped from attempt 4 on
        wait = policy.backoff_s(attempt, rng)
        assert 0.5 * nominal <= wait <= nominal


def test_backoff_schedule_is_deterministic():
    policy = SupervisorPolicy(backoff_seed=7)
    first = [policy.backoff_s(attempt, policy.backoff_stream())
             for attempt in (1, 2, 3)]
    second = [policy.backoff_s(attempt, policy.backoff_stream())
              for attempt in (1, 2, 3)]
    assert first == second
    # A different seed gives a different (but equally fixed) schedule.
    other = SupervisorPolicy(backoff_seed=8)
    assert first != [other.backoff_s(attempt, other.backoff_stream())
                     for attempt in (1, 2, 3)]


def test_backoff_attempt_is_one_based():
    policy = SupervisorPolicy()
    with pytest.raises(ValueError):
        policy.backoff_s(0, policy.backoff_stream())
