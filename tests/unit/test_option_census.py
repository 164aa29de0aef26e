"""Option census: every user-settable value, as one snapshot.

Each field of the config dataclasses reachable from ``ExperimentConfig``
/ ``SupervisorPolicy``, each environment variable ``src/`` reads and
each ``--flag`` of the four subcommands is listed here once.  A new
option is therefore a deliberate edit of one list (and of DESIGN.md's
"Options and who sets them" table, which names the caller that needs
it); a value nobody sets belongs next to the code that uses it instead.
"""

import argparse
import dataclasses
import pathlib
import re

import pytest

import repro
from repro.checkpoint.config import CheckpointConfig
from repro.cli import SUBCOMMANDS, main
from repro.experiments.config import (
    ExperimentConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.forwarding.vertigo import VertigoSwitchParams
from repro.metrics.collector import MetricsCollector
from repro.net.builder import NetworkParams
from repro.net.fidelity import FidelityConfig
from repro.net.pfc import PfcConfig
from repro.runtime.policy import SupervisorPolicy
from repro.sim.engine import Engine
from repro.trace.tracer import TraceConfig
from repro.transport import TRANSPORTS
from repro.transport.base import TransportConfig
from tests.unit.test_transport_base import StubHost

CONFIG_FIELDS = {
    ExperimentConfig: [
        "topology", "network", "system", "transport_name", "transport",
        "workload", "sim_time_ns", "seed", "faults",
        "telemetry_interval_ns", "sanitize", "trace", "fidelity", "pfc",
        "checkpoint"],
    NetworkParams: [
        "host_rate_bps", "fabric_rate_bps", "host_link_delay_ns",
        "fabric_link_delay_ns", "buffer_bytes", "ecn_threshold_bytes",
        "shared_buffer_alpha"],
    SystemConfig: [
        "name", "vertigo_switch", "marking_discipline", "boost_factor",
        "boosting", "ordering", "ordering_timeout_ns"],
    VertigoSwitchParams: [
        "fw_choices", "def_choices", "scheduling", "deflection",
        "max_deflections"],
    TransportConfig: [
        "mss", "init_cwnd", "init_rto_ns", "min_rto_ns", "fast_retransmit",
        "delayed_ack", "swift_target_delay_ns", "dcqcn_rate_bps",
        "dcqcn_timer_ns"],
    WorkloadConfig: ["specs", "warmup_ns", "cooldown_ns"],
    FidelityConfig: [
        "mode", "demote_shares", "demote_queue_bytes", "promote_epoch_ns",
        "promote_util_permille"],
    PfcConfig: [
        "enabled", "num_classes", "priority_map", "xoff_bytes", "xon_bytes",
        "headroom_bytes"],
    TraceConfig: ["level", "sample_period_ns", "max_events", "max_samples"],
    CheckpointConfig: ["every_ns", "directory"],
    SupervisorPolicy: [
        "max_retries", "run_timeout_s", "preempt_grace_s", "stall_timeout_s",
        "backoff_base_s", "backoff_cap_s", "backoff_seed"],
}

ENV_VARS = ["REPRO_JOBS", "REPRO_SANITIZE"]

_EXPERIMENT_FLAGS = [
    "--bg-load", "--checkpoint-dir", "--checkpoint-every", "--cooldown",
    "--demote-shares", "--fat-tree", "--fault", "--fidelity",
    "--incast-flow-bytes", "--incast-load", "--incast-scale",
    "--paper-scale", "--pfc", "--pfc-classes", "--pfc-headroom",
    "--sample-us", "--sanitize", "--seed", "--sim-ms", "--trace",
    "--trace-level", "--transport", "--warmup", "--workload"]

CLI_FLAGS = {
    "run": sorted(_EXPERIMENT_FLAGS + ["--system"]),
    "sweep": sorted(_EXPERIMENT_FLAGS + [
        "--jobs", "--journal", "--max-retries", "--preempt-grace",
        "--resume", "--run-timeout", "--seeds", "--stall-timeout",
        "--systems"]),
    "lint": ["--config", "--list-rules", "--select"],
    "trace-view": ["--chrome", "--validate"],
}


@pytest.mark.parametrize("cls", list(CONFIG_FIELDS), ids=lambda c: c.__name__)
def test_config_fields_snapshot(cls):
    assert [f.name for f in dataclasses.fields(cls)] == CONFIG_FIELDS[cls]


def test_config_field_total():
    assert sum(len(names) for names in CONFIG_FIELDS.values()) == 70


def test_env_vars_snapshot():
    read = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        read.update(re.findall(r"""os\.environ(?:\.get\(|\[)\s*["'](\w+)""",
                               path.read_text()))
    assert sorted(read) == ENV_VARS


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
