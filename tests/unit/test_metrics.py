"""Metrics collector and statistics helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.metrics.collector import (
    MetricsCollector,
    completion_pct,
    completion_times_s,
)
from repro.metrics.stats import (
    cdf_points,
    censored_mean,
    censored_percentile,
    mean,
    percentile,
)
from repro.sim.units import SECOND


def test_mean_and_empty_mean():
    assert mean([1, 2, 3]) == 2
    assert math.isnan(mean([]))


def test_percentile_interpolation():
    values = [10, 20, 30, 40]
    assert percentile(values, 0) == 10
    assert percentile(values, 100) == 40
    assert percentile(values, 50) == 25
    assert percentile([7], 99) == 7
    assert math.isnan(percentile([], 50))


def test_percentile_bounds():
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_cdf_points():
    assert cdf_points([3, 1, 2]) == [(1, 1 / 3), (2, 2 / 3), (3, 1.0)]


# -- censored statistics: unfinished items at their lower bounds ---------------

PCTS = (0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100)
NS = st.integers(0, 10 ** 12)  # completion times and bounds, integer ns


@pytest.mark.parametrize("values", [[7], [10, 20, 30, 40], [3, 1, 2, 2, 9]])
def test_censored_stats_of_a_completed_population_are_the_plain_ones(values):
    assert censored_mean(values, []) == (mean(values), False)
    for pct in PCTS:
        assert censored_percentile(values, [], pct) \
            == (percentile(values, pct), False)


def test_censored_stats_flag_what_a_lower_bound_decides():
    # The true mean can only be higher than a mean with any bound in it.
    assert censored_mean([10, 20], [30]) == (20, True)
    # The median is a completed value below the unfinished item ...
    assert censored_percentile([10, 20, 40], [30], 25) == (17.5, False)
    # ... but the tail reads the bound, and a bound tied with a
    # completed value at the position read decides nothing.
    assert censored_percentile([10, 20, 40], [30], 90) == (37.0, True)
    assert censored_percentile([5], [5], 0) == (5, False)
    assert censored_percentile([5], [5], 100) == (5, True)
    assert censored_percentile([], [8], 50) == (8, True)
    assert math.isnan(censored_mean([], [])[0])


def test_a_low_bound_can_lower_the_statistic():
    # Only a bound at least the largest completed value keeps the result
    # at or above the completed-only one.
    assert censored_mean([10], [1]) == (5.5, True)
    assert censored_percentile([10], [1], 50) == (5.5, True)


@given(st.lists(NS, max_size=30), st.lists(NS, min_size=1, max_size=30),
       st.data())
def test_raising_a_lower_bound_never_lowers_the_result(completed, bounds,
                                                       data):
    index = data.draw(st.integers(0, len(bounds) - 1))
    raised = list(bounds)
    raised[index] += data.draw(NS)
    assert censored_mean(completed, raised)[0] \
        >= censored_mean(completed, bounds)[0]
    for pct in PCTS:
        value, depends = censored_percentile(completed, bounds, pct)
        after = censored_percentile(completed, raised, pct)[0]
        assert after >= value
        if not depends:  # no bound is read: raising one moves nothing
            assert after == value


@given(st.lists(NS, min_size=1, max_size=30),
       st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=30))
def test_bounds_past_every_completed_value_never_lower_the_result(
        completed, excess):
    bounds = [max(completed) + extra for extra in excess]
    assert censored_mean(completed, bounds)[0] >= mean(completed)
    for pct in PCTS:
        assert censored_percentile(completed, bounds, pct)[0] \
            >= percentile(completed, pct)


def fcts(metrics):
    return completion_times_s(metrics.population(metrics.flows))


def test_flow_lifecycle_and_fct():
    metrics = MetricsCollector()
    metrics.flow_started(1, 0, 1, 1000, start_ns=SECOND)
    assert not metrics.flows[1].completed
    metrics.flow_completed(1, end_ns=2 * SECOND)
    assert metrics.flows[1].fct_ns == SECOND
    assert fcts(metrics) == [1.0]
    assert completion_pct(metrics.population(metrics.flows)) == 100.0


def test_flow_completed_idempotent():
    metrics = MetricsCollector()
    metrics.flow_started(1, 0, 1, 1000, 0)
    metrics.flow_completed(1, 100)
    metrics.flow_completed(1, 999)
    assert metrics.flows[1].end_ns == 100


def test_query_completes_when_all_flows_do():
    metrics = MetricsCollector()
    query_id = metrics.query_started(client=0, start_ns=0,
                                     n_flows=2).query_id
    assert query_id == 1
    metrics.flow_started(1, 1, 0, 100, 0, is_incast=True, query_id=1)
    metrics.flow_started(2, 2, 0, 100, 0, is_incast=True, query_id=1)
    metrics.flow_completed(1, SECOND)
    assert not metrics.queries[1].completed
    metrics.flow_completed(2, 3 * SECOND)
    assert metrics.queries[1].completed
    assert metrics.queries[1].qct_ns == 3 * SECOND
    queries = metrics.population(metrics.queries)
    assert completion_times_s(queries) == [3.0]
    assert completion_pct(queries) == 100.0


def test_the_collector_numbers_queries_and_coflows_per_run():
    metrics = MetricsCollector()
    ids = [metrics.query_started(client=0, start_ns=0, n_flows=1).query_id
           for _ in range(3)]
    assert ids == [1, 2, 3] and list(metrics.queries) == ids
    assert [metrics.coflow_started(start_ns=0, n_flows=1,
                                   stages=1).coflow_id
            for _ in range(2)] == [1, 2]


def test_incomplete_stats_are_nan_or_partial():
    metrics = MetricsCollector()
    assert math.isnan(completion_pct(metrics.population(metrics.flows)))
    assert math.isnan(mean(completion_times_s(
        metrics.population(metrics.queries))))
    metrics.flow_started(1, 0, 1, 100, 0)
    assert completion_pct(metrics.population(metrics.flows)) == 0.0


def test_fct_filters():
    metrics = MetricsCollector()
    metrics.flow_started(1, 0, 1, 50_000, 0, is_incast=True, query_id=None)
    metrics.flow_started(2, 0, 1, 500_000, 0)
    metrics.flow_completed(1, SECOND)
    metrics.flow_completed(2, 2 * SECOND)
    flows = metrics.population(metrics.flows)
    assert completion_times_s(f for f in flows if f.is_incast) == [1.0]
    assert completion_times_s(f for f in flows if not f.is_incast) == [2.0]
    assert completion_times_s(f for f in flows if f.size <= 100_000) \
        == [1.0]


def test_goodput_counts_partial_deliveries():
    metrics = MetricsCollector()
    metrics.flow_started(1, 0, 1, 1000, 0)
    metrics.flows[1].bytes_delivered = 500
    assert metrics.goodput_bps(SECOND) == 500 * 8
    metrics.flow_completed(1, SECOND)
    assert metrics.goodput_bps(SECOND) == 1000 * 8


def test_goodput_min_size_filter():
    metrics = MetricsCollector()
    metrics.flow_started(1, 0, 1, 100, 0)
    metrics.flow_started(2, 0, 1, 10_000_000, 0)
    metrics.flow_completed(1, 1)
    metrics.flows[2].bytes_delivered = 2_000_000
    elephant_only = metrics.goodput_bps(SECOND, min_size=1_000_000)
    assert elephant_only == 2_000_000 * 8


def test_network_counters_derived_metrics():
    metrics = MetricsCollector()
    counters = metrics.counters
    counters.forwarded = 90
    counters.class_drops[(0, "overflow")] = 6
    counters.class_drops[(1, "overflow")] = 4
    assert counters.total_drops == 10
    assert counters.drops == {"overflow": 10}
    assert counters.drops["no_route"] == 0
    with pytest.raises(TypeError):  # derived from class_drops, read-only
        counters.drops["overflow"] += 1
    assert counters.drop_rate() == pytest.approx(0.1)
    counters.delivered = 4
    counters.hops_delivered = 10
    assert counters.mean_hops() == 2.5


def test_drop_rate_empty_network():
    metrics = MetricsCollector()
    assert metrics.counters.drop_rate() == 0.0
    assert math.isnan(metrics.counters.mean_hops())


def test_p99_uses_percentile():
    metrics = MetricsCollector()
    for i in range(100):
        metrics.flow_started(i, 0, 1, 100, 0)
        metrics.flow_completed(i, (i + 1) * SECOND)
    assert percentile(fcts(metrics), 99) == pytest.approx(percentile(
        [float(i + 1) for i in range(100)], 99))


# -- coflow accounting --------------------------------------------------------

def test_coflow_completes_when_all_flows_do():
    metrics = MetricsCollector()
    metrics.coflow_started(start_ns=0, n_flows=2, stages=1)
    metrics.flow_started(1, 0, 1, 100, 0, coflow_id=1)
    metrics.flow_started(2, 2, 3, 100, 0, coflow_id=1)
    metrics.flow_completed(1, SECOND)
    assert not metrics.coflows[1].completed
    metrics.flow_completed(2, 3 * SECOND)
    assert metrics.coflows[1].completed
    assert metrics.coflows[1].cct_ns == 3 * SECOND
    coflows = metrics.population(metrics.coflows)
    assert completion_times_s(coflows) == [3.0]
    assert completion_pct(coflows) == 100.0


def test_incomplete_coflow_stats():
    metrics = MetricsCollector()
    assert math.isnan(completion_pct(metrics.population(metrics.coflows)))
    metrics.coflow_started(start_ns=0, n_flows=2, stages=1)
    metrics.flow_started(1, 0, 1, 100, 0, coflow_id=1)
    metrics.flow_completed(1, SECOND)
    coflows = metrics.population(metrics.coflows)
    assert completion_pct(coflows) == 0.0
    assert math.isnan(percentile(completion_times_s(coflows), 99))


# -- measurement window -------------------------------------------------------

def test_window_excludes_warmup_and_cooldown_starts():
    metrics = MetricsCollector()
    metrics.set_window(SECOND, 3 * SECOND)
    # Starts at 0 (warmup), 2s (inside), 3s (cooldown; window is half-open).
    for flow_id, start in ((1, 0), (2, 2 * SECOND), (3, 3 * SECOND)):
        metrics.flow_started(flow_id, 0, 1, 100, start)
        metrics.flow_completed(flow_id, start + SECOND)
    assert fcts(metrics) == [1.0]
    assert completion_pct(metrics.population(metrics.flows)) == 100.0


def test_window_counts_straddling_flow_exactly_once():
    metrics = MetricsCollector()
    metrics.set_window(SECOND, 3 * SECOND)
    # Starts inside the window, completes after it: counted (once, by
    # its start side), even though it ends past window_end.
    metrics.flow_started(1, 0, 1, 100, 2 * SECOND)
    metrics.flow_completed(1, 5 * SECOND)
    # Starts before the window, ends inside it: not counted.
    metrics.flow_started(2, 0, 1, 100, 0)
    metrics.flow_completed(2, 2 * SECOND)
    assert fcts(metrics) == [3.0]
    assert completion_pct(metrics.population(metrics.flows)) == 100.0


def test_window_applies_to_queries_and_coflows():
    metrics = MetricsCollector()
    metrics.set_window(SECOND, None)
    metrics.query_started(client=0, start_ns=0, n_flows=1)
    metrics.flow_started(1, 1, 0, 100, 0, is_incast=True, query_id=1)
    metrics.flow_completed(1, 2 * SECOND)
    metrics.coflow_started(start_ns=0, n_flows=1, stages=1)
    metrics.flow_started(2, 0, 1, 100, 0, coflow_id=1)
    metrics.flow_completed(2, 2 * SECOND)
    assert metrics.population(metrics.queries) == []
    assert metrics.population(metrics.coflows) == []
    assert math.isnan(completion_pct([]))


def test_window_goodput_uses_window_span():
    metrics = MetricsCollector()
    metrics.set_window(SECOND, 2 * SECOND)
    metrics.flow_started(1, 0, 1, 1000, 0)            # excluded
    metrics.flow_completed(1, SECOND // 2)
    metrics.flow_started(2, 0, 1, 1000, SECOND)       # included
    metrics.flow_completed(2, 2 * SECOND)
    # duration_ns argument is overridden by the 1 s window span.
    assert metrics.goodput_bps(10 * SECOND) == pytest.approx(8000.0)


def test_window_validation():
    metrics = MetricsCollector()
    with pytest.raises(ValueError):
        metrics.set_window(SECOND, SECOND)
