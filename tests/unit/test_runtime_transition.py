"""The supervisor's transition table, enumerated.

``transition`` is the only place the sweep executor decides what happens
when an attempt ends.  The expected table below is written out from the
rules the supervisor has always applied (PR 5/PR 10 behaviour), one cell
per point of the input space — no pool, no sleeping.
"""

import itertools

import pytest

from repro.runtime.supervisor import ENDINGS, Step, transition

OK = Step("finish", True, "ok")
RETRY = Step("retry", True)            # requeue behind a backoff wait
FREE = Step("requeue", False)          # requeue at once, attempt not charged
TIMEOUT = Step("finish", True, "timeout",
               "exceeded --run-timeout {timeout:g}s ({attempts} attempt(s))")
CRASHED = Step("finish", True, "crashed",
               "worker process died ({attempts} attempt(s))")
FAILED = Step("finish", True, "failed", "{signature}")
FAST = Step("finish", True, "failed",
            "{signature} (failed identically twice; not retrying)")

#: (ending, timed_out, collateral) -> expected step for
#: (exhausted, repeated) = (F, F), (F, T), (T, F), (T, T).
EXPECTED = {
    ("ok", False, False):          (OK, OK, OK, OK),
    ("ok", False, True):           (OK, OK, OK, OK),
    ("ok", True, False):           (OK, OK, OK, OK),
    ("ok", True, True):            (OK, OK, OK, OK),
    ("raised", False, False):      (RETRY, FAST, FAILED, FAST),
    ("raised", False, True):       (RETRY, FAST, FAILED, FAST),
    ("raised", True, False):       (RETRY, RETRY, TIMEOUT, TIMEOUT),
    ("raised", True, True):        (RETRY, RETRY, TIMEOUT, TIMEOUT),
    ("pool_broken", False, False): (RETRY, RETRY, CRASHED, CRASHED),
    ("pool_broken", False, True):  (FREE, FREE, FREE, FREE),
    ("pool_broken", True, False):  (RETRY, RETRY, TIMEOUT, TIMEOUT),
    ("pool_broken", True, True):   (RETRY, RETRY, TIMEOUT, TIMEOUT),
}

BOOLS = (False, True)
SPACE = list(itertools.product(ENDINGS, BOOLS, BOOLS, BOOLS, BOOLS))


def test_expected_table_covers_the_whole_input_space():
    assert set(EXPECTED) == set(itertools.product(ENDINGS, BOOLS, BOOLS))
    assert ENDINGS == ("ok", "raised", "pool_broken")
    assert len(SPACE) == 48


@pytest.mark.parametrize(
    "ending,timed_out,collateral,exhausted,repeated", SPACE)
def test_transition_matches_table(ending, timed_out, collateral, exhausted,
                                  repeated):
    expected = EXPECTED[ending, timed_out, collateral][2 * exhausted
                                                       + repeated]
    assert transition(ending, timed_out=timed_out, collateral=collateral,
                      exhausted=exhausted, repeated=repeated) == expected


def test_only_free_requeues_are_uncharged_and_only_finishes_have_status():
    for ending, timed_out, collateral, exhausted, repeated in SPACE:
        step = transition(ending, timed_out=timed_out,
                          collateral=collateral, exhausted=exhausted,
                          repeated=repeated)
        assert step.charged == (step.action != "requeue")
        assert (step.status is not None) == (step.action == "finish")
        assert (step.error is not None) == (step.status not in (None, "ok"))


def test_error_templates_render():
    assert TIMEOUT.error.format(timeout=0.5, attempts=3,
                                signature=None) == \
        "exceeded --run-timeout 0.5s (3 attempt(s))"
    # Braces in the runner's own message are data, not template fields.
    assert FAST.error.format(timeout=None, attempts=2,
                             signature="KeyError: '{x}'") == \
        "KeyError: '{x}' (failed identically twice; not retrying)"
