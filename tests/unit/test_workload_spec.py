"""Workload spec dataclasses and the ``--workload`` directive grammar."""

import pickle

import pytest

from repro.workload.spec import (
    BackgroundSpec,
    CoflowSpec,
    DutyCycleSpec,
    IncastSpec,
    WorkloadParseError,
    WorkloadSpec,
    parse_workload,
    parse_workloads,
    specs_from_legacy,
)


# -- parsing -----------------------------------------------------------------

def test_parse_bare_kinds_give_defaults():
    assert parse_workload("background") == BackgroundSpec()
    assert parse_workload("incast") == IncastSpec()
    assert parse_workload("coflow") == CoflowSpec()
    assert parse_workload("duty_cycle") == DutyCycleSpec()


def test_parse_background_options():
    spec = parse_workload("background:load=0.3,dist=web_search,cap=200000")
    assert spec == BackgroundSpec(load=0.3, distribution="web_search",
                                  size_cap=200_000)


def test_parse_incast_options():
    spec = parse_workload("incast:scale=24,load=0.1,bytes=20000")
    assert spec == IncastSpec(load=0.1, scale=24, flow_bytes=20_000)
    assert parse_workload("incast:qps=150").qps == 150


def test_parse_coflow_options():
    spec = parse_workload(
        "coflow:width=8,stages=2,load=0.2,pattern=partition_aggregate")
    assert spec == CoflowSpec(width=8, stages=2, load=0.2,
                              pattern="partition_aggregate")


def test_parse_duty_cycle_period_accepts_time_suffix():
    spec = parse_workload("duty_cycle:load=0.3,duty=0.1,period=1ms")
    assert spec == DutyCycleSpec(load=0.3, duty=0.1, period_ns=1_000_000)
    assert parse_workload("duty_cycle:period=500").period_ns == 500


def test_parse_whitespace_and_case_tolerated():
    spec = parse_workload("  Background : LOAD = 0.25 ")
    assert spec == BackgroundSpec(load=0.25)


def test_parse_workloads_returns_tuple_in_order():
    specs = parse_workloads(["background:load=0.2", "coflow:width=4"])
    assert specs == (BackgroundSpec(load=0.2), CoflowSpec(width=4))
    assert parse_workloads([]) == ()
    assert parse_workloads(None) == ()


@pytest.mark.parametrize("directive", [
    "warp",                                  # unknown kind
    "background:burst=9",                    # unknown option
    "background:load",                       # missing =value
    "background:load=much",                  # unparseable value
    "coflow:pattern=ring",                   # bad enum
    "incast:load=0.1,qps=50",                # both load and qps
    "duty_cycle:duty=0",                     # duty out of range
    "duty_cycle:period=0",                   # non-positive period
    # Removed spellings are unknown options (or kinds), not aliases.
    "background:zipf_s=1.4",
    "background:skew=diagonal",
    "background:skew=zipf,zipf_s=-1",
    "background:distribution=web_search",
    "background:size_cap=1000",
    "incast:flow_bytes=20000",
    "coflow:flow_bytes=20000",
    "duty_cycle:period_ns=1ms",
    "duty-cycle:duty=0.5",
])
def test_parse_errors_are_workload_parse_errors(directive):
    with pytest.raises(WorkloadParseError):
        parse_workload(directive)
    # WorkloadParseError is a ValueError, so legacy handlers still catch it.
    with pytest.raises(ValueError):
        parse_workload(directive)


def test_parse_error_names_the_directive():
    with pytest.raises(WorkloadParseError, match="burst"):
        parse_workload("background:burst=9")
    with pytest.raises(WorkloadParseError,
                       match="unknown background option 'skew'"):
        parse_workload("background:load=0.1,skew=zipf")


# -- spec validation ---------------------------------------------------------

def test_incast_spec_rejects_load_and_qps():
    with pytest.raises(ValueError):
        IncastSpec(load=0.1, qps=100)


def test_coflow_spec_rejects_load_and_cps():
    with pytest.raises(ValueError):
        CoflowSpec(load=0.1, cps=5)


@pytest.mark.parametrize("bad", [
    lambda: BackgroundSpec(load=-0.1),
    lambda: BackgroundSpec(size_cap=0),
    lambda: IncastSpec(scale=0),
    lambda: CoflowSpec(width=0),
    lambda: CoflowSpec(stages=0),
    lambda: CoflowSpec(pattern="ring"),
    lambda: DutyCycleSpec(duty=1.5),
    lambda: DutyCycleSpec(period_ns=0),
    lambda: DutyCycleSpec(period_ns=1.5e6),   # float ns rejected
    lambda: IncastSpec(flow_bytes=0),
    lambda: CoflowSpec(flow_bytes=0),
    lambda: DutyCycleSpec(load=-0.1),
    lambda: DutyCycleSpec(size_cap=0),
])
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        bad()


def test_flows_per_coflow():
    assert CoflowSpec(width=8, stages=2).flows_per_coflow == 128
    assert CoflowSpec(width=8, stages=2,
                      pattern="partition_aggregate").flows_per_coflow == 32


def test_offered_load():
    assert BackgroundSpec(load=0.3).offered_load == 0.3
    assert IncastSpec(qps=100).offered_load == 0.0
    assert IncastSpec(load=0.1).offered_load == 0.1
    assert CoflowSpec(load=0.2).offered_load == 0.2
    assert DutyCycleSpec(load=0.4, duty=0.1).offered_load == 0.4


def test_specs_are_frozen_hashable_picklable():
    spec = CoflowSpec(width=4, pattern="partition_aggregate")
    with pytest.raises(Exception):
        spec.width = 8
    assert hash(spec) == hash(CoflowSpec(width=4,
                                         pattern="partition_aggregate"))
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert isinstance(spec, WorkloadSpec)


def test_specs_from_legacy_defaults():
    background, incast = specs_from_legacy()
    assert background == BackgroundSpec(load=0.15)
    assert incast == IncastSpec()
    background, incast = specs_from_legacy(
        bg_load=0.5, bg_size_cap=100_000, incast_qps=60, incast_scale=8)
    assert background.load == 0.5 and background.size_cap == 100_000
    assert incast.qps == 60 and incast.scale == 8
