"""Option census: every user-settable value, as one snapshot.

Each field of the config dataclasses reachable from ``ExperimentConfig``
/ ``SupervisorPolicy``, each field of the workload and fault specs, each
``--workload`` directive key, each keyword of the two profiles, each
environment variable ``src/`` reads, each key of a sweep point's record
and each ``--flag`` of the four subcommands is listed here once.  A new option is therefore a deliberate
edit of one list (and of DESIGN.md's "Options and who sets them" table,
which names the caller that needs it); a value nobody sets belongs next
to the code that uses it instead.
"""

import argparse
import dataclasses
import inspect
import pathlib
import re
import typing

import pytest

import repro
from repro.checkpoint.config import CheckpointConfig
from repro.cli import SUBCOMMANDS, build_parser, main
from repro.experiments.config import (
    ExperimentConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.faults.spec import FaultSpec
from repro.forwarding.base import VertigoSwitchParams
from repro.metrics.collector import MetricsCollector
from repro.net.builder import NetworkParams
from repro.net.fidelity import FidelityConfig
from repro.net.pfc import PfcConfig
from repro.runtime.policy import SupervisorPolicy
from repro.runtime.supervisor import RunOutcome
from repro.sim.engine import Engine
from repro.trace.tracer import TraceConfig
from repro.transport import TRANSPORTS
from repro.transport.base import TransportConfig
from repro.workload import spec as workload_spec
from repro.workload.spec import (
    SPEC_CLASSES,
    BackgroundSpec,
    CoflowSpec,
    DutyCycleSpec,
    IncastSpec,
    specs_from_legacy,
)
from tests.unit.test_transport_base import StubHost

CONFIG_FIELDS = {
    ExperimentConfig: [
        "topology", "network", "system", "transport_name", "transport",
        "workload", "sim_time_ns", "seed", "faults",
        "telemetry_interval_ns", "trace", "fidelity", "pfc", "checkpoint"],
    NetworkParams: [
        "host_rate_bps", "fabric_rate_bps", "host_link_delay_ns",
        "fabric_link_delay_ns", "buffer_bytes", "ecn_threshold_bytes",
        "shared_buffer_alpha"],
    SystemConfig: [
        "name", "vertigo_switch", "marking_discipline", "boost_factor",
        "boosting", "ordering", "ordering_timeout_ns"],
    VertigoSwitchParams: [
        "fw_choices", "def_choices", "scheduling", "deflection"],
    TransportConfig: [
        "init_rto_ns", "min_rto_ns", "fast_retransmit", "delayed_ack",
        "swift_target_delay_ns", "dcqcn_rate_bps", "dcqcn_timer_ns"],
    WorkloadConfig: ["specs", "warmup_ns", "cooldown_ns"],
    FidelityConfig: ["mode", "demote_shares"],
    PfcConfig: [
        "enabled", "num_classes", "priority_map", "xoff_bytes", "xon_bytes",
        "headroom_bytes"],
    TraceConfig: ["level", "sample_period_ns"],
    CheckpointConfig: ["every_ns", "directory"],
    SupervisorPolicy: ["max_retries", "run_timeout_s"],
}

#: The values one workload generator is configured by.
SPEC_FIELDS = {
    BackgroundSpec: ["load", "distribution", "size_cap"],
    IncastSpec: ["load", "qps", "scale", "flow_bytes"],
    CoflowSpec: ["width", "stages", "pattern", "flow_bytes", "load", "cps"],
    DutyCycleSpec: ["load", "duty", "period_ns", "distribution",
                    "size_cap"],
}

FAULT_FIELDS = ["kind", "link", "at_ns", "loss_rate"]

#: ``--workload <kind>:<key>=<value>`` keys, one spelling per field.
DIRECTIVE_KEYS = {
    "background": ["cap", "dist", "load"],
    "incast": ["bytes", "load", "qps", "scale"],
    "coflow": ["bytes", "cps", "load", "pattern", "stages", "width"],
    "duty_cycle": ["cap", "dist", "duty", "load", "period"],
}

#: Each profile's keywords; a ``**`` entry forwards to the list below it.
PROFILE_KEYWORDS = {
    "bench_profile": [
        "system", "transport", "bg_load", "incast_load", "incast_qps",
        "incast_scale", "incast_flow_bytes", "workload", "sim_time_ns",
        "topology", "faults", "seed", "**system_kwargs"],
    "paper_profile": ["system", "transport", "**workload_kwargs"],
}

#: ``paper_profile(**workload_kwargs)`` -> ``specs_from_legacy``;
#: ``bench_profile(**system_kwargs)`` -> ``SystemConfig`` (above).
LEGACY_KEYWORDS = ["bg_load", "bg_size_cap", "incast_load", "incast_qps",
                   "incast_scale", "incast_flow_bytes"]

ENV_VARS = ["REPRO_JOBS", "REPRO_SANITIZE"]

_EXPERIMENT_FLAGS = [
    "--bg-load", "--checkpoint-dir", "--checkpoint-every", "--cooldown",
    "--demote-shares", "--fat-tree", "--fault", "--fidelity",
    "--incast-flow-bytes", "--incast-load", "--incast-scale",
    "--paper-scale", "--pfc", "--pfc-classes", "--pfc-headroom",
    "--sample-us", "--seed", "--sim-ms", "--trace",
    "--trace-level", "--transport", "--warmup", "--workload"]

#: One sweep point's record (``RunOutcome``): the failure-manifest row.
RECORD_KEYS = ["index", "digest", "status", "attempts", "wall_s", "error",
               "seed", "system"]
#: The journal line: the record plus what only a result has.
LINE_KEYS = RECORD_KEYS + ["run_digest", "payload", "checkpoint"]

CLI_FLAGS = {
    "run": sorted(_EXPERIMENT_FLAGS + ["--system"]),
    "sweep": sorted(_EXPERIMENT_FLAGS + [
        "--jobs", "--journal", "--max-retries", "--resume", "--run-timeout",
        "--seeds", "--systems"]),
    "lint": [],
    "trace-view": ["--chrome", "--validate"],
}


@pytest.mark.parametrize("cls", list(CONFIG_FIELDS), ids=lambda c: c.__name__)
def test_config_fields_snapshot(cls):
    assert [f.name for f in dataclasses.fields(cls)] == CONFIG_FIELDS[cls]


def test_config_field_total():
    assert sum(len(names) for names in CONFIG_FIELDS.values()) == 56


def test_design_doc_names_every_config_field():
    """DESIGN.md's "Options and who sets them" opens with the census
    count and names every config field, backticked, in its table."""
    text = (pathlib.Path(__file__).resolve().parents[2]
            / "DESIGN.md").read_text(encoding="utf-8")
    start = text.index("## Options and who sets them")
    section = text[start:text.index("\n## ", start)]
    total = sum(len(names) for names in CONFIG_FIELDS.values())
    assert (f"the {total} fields of the {len(CONFIG_FIELDS)} config "
            f"dataclasses") in " ".join(section.split())
    assert [f"{cls.__name__}.{name}"
            for cls, names in CONFIG_FIELDS.items() for name in names
            if f"`{name}`" not in section] == []


def _reachable_dataclasses(root):
    """``root`` and every ``repro`` dataclass its field types name, their
    subclasses included, followed through ``Optional`` and ``Tuple``."""
    seen, todo = set(), [root]
    while todo:
        hint = todo.pop()
        args = typing.get_args(hint)
        if args:
            todo.extend(args)
        elif isinstance(hint, type) and hint not in seen \
                and hint.__module__.startswith("repro."):
            seen.add(hint)
            todo.extend(hint.__subclasses__())
            if dataclasses.is_dataclass(hint):
                todo.extend(typing.get_type_hints(hint).values())
    return {cls for cls in seen if dataclasses.is_dataclass(cls)}


def test_every_config_block_is_frozen():
    """A config is a value: no block a run reads can change under it."""
    reachable = _reachable_dataclasses(ExperimentConfig)
    assert set(CONFIG_FIELDS) - {SupervisorPolicy} | {FaultSpec} \
        | set(SPEC_FIELDS) <= reachable
    assert sorted(cls.__name__ for cls in reachable
                  if not cls.__dataclass_params__.frozen) == []


def test_transport_choices_are_the_transports():
    (action,) = [action for action in build_parser()._actions
                 if "--transport" in action.option_strings]
    assert action.choices == list(TRANSPORTS)


def _names(fn):
    return [("**" if param.kind is param.VAR_KEYWORD else "") + param.name
            for param in inspect.signature(fn).parameters.values()]


@pytest.mark.parametrize("cls", [*SPEC_FIELDS, FaultSpec],
                         ids=lambda c: c.__name__)
def test_spec_fields_snapshot(cls):
    expected = SPEC_FIELDS.get(cls, FAULT_FIELDS)
    assert [f.name for f in dataclasses.fields(cls)] == expected


def test_spec_value_total():
    assert list(SPEC_CLASSES.values()) == list(SPEC_FIELDS)
    assert sum(len(dataclasses.fields(cls))
               for cls in SPEC_CLASSES.values()) == 18


@pytest.mark.parametrize("kind", list(DIRECTIVE_KEYS))
def test_directive_keys_snapshot(kind):
    keys = workload_spec._KEYS[kind]
    assert sorted(keys) == DIRECTIVE_KEYS[kind]
    # One spelling per field: the keys name every field exactly once.
    fields = [field for field, _ in keys.values()]
    assert sorted(fields) == sorted(SPEC_FIELDS[SPEC_CLASSES[kind]])


def test_directive_key_total():
    assert list(workload_spec._KEYS) == list(DIRECTIVE_KEYS)
    assert sum(len(keys) for keys in workload_spec._KEYS.values()) == 18


@pytest.mark.parametrize("profile", list(PROFILE_KEYWORDS))
def test_profile_keywords_snapshot(profile):
    assert _names(getattr(ExperimentConfig, profile)) \
        == PROFILE_KEYWORDS[profile]
    assert _names(specs_from_legacy) == LEGACY_KEYWORDS
    with pytest.raises(TypeError):
        getattr(ExperimentConfig, profile)(bg_distribution="web_search")


def test_env_vars_snapshot():
    read = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        read.update(re.findall(r"""os\.environ(?:\.get\(|\[)\s*["'](\w+)""",
                               path.read_text()))
    assert sorted(read) == ENV_VARS


def test_record_keys_snapshot():
    outcome = RunOutcome(0, "digest", "failed")
    assert list(outcome.row()) == RECORD_KEYS
    assert list(outcome.line()) == LINE_KEYS


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_cli_flags_snapshot(subcommand, monkeypatch):
    seen = []

    def capture(parser, args=None, namespace=None):
        seen.extend(option for action in parser._actions
                    for option in action.option_strings
                    if option.startswith("--") and option != "--help")
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(SystemExit):
        main([subcommand])
    assert sorted(seen) == CLI_FLAGS[subcommand]


def test_ecn_capability_belongs_to_the_congestion_control():
    """DCTCP and DCQCN packets ask for ECN marks, Reno and Swift packets
    do not — with one and the same config, which has no say in it."""
    config = TransportConfig(swift_target_delay_ns=100_000,
                             dcqcn_rate_bps=10_000_000_000,
                             dcqcn_timer_ns=55_000)
    capable = {}
    for name, sender_cls in TRANSPORTS.items():
        engine = Engine()
        host = StubHost(engine, 1)
        sender_cls(engine, host, 7, 2, 10_000, config,
                   MetricsCollector()).start()
        engine.run(max_events=50)
        assert host.sent
        capable[name] = {packet.ecn_capable for packet in host.sent}
    assert capable == {"reno": {False}, "swift": {False},
                       "dctcp": {True}, "dcqcn": {True}}
