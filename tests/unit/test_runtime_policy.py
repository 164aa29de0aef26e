"""Supervision policy: defaults and validation."""

import math

import pytest

from repro.runtime.policy import SupervisorPolicy


def test_defaults():
    policy = SupervisorPolicy()
    assert policy.max_retries == 2
    assert policy.run_timeout_s is None


def test_constructor_validation():
    with pytest.raises(ValueError):
        SupervisorPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisorPolicy(run_timeout_s=0)
    # A NaN deadline never fires; an infinite retry budget never runs out.
    for name in ("max_retries", "run_timeout_s"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError):
                SupervisorPolicy(**{name: value})
