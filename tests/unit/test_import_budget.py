"""A run imports only the machinery its config turns on.

Every module a fresh interpreter loads costs it that module's compile
time unless bytecode is cached, and start-up is what each sweep point,
pool worker and CLI call pays again.  Config modules therefore import no
machinery, ``_build_world`` imports the PFC and fidelity controllers,
the tracer, the sampler and the fault injector where it builds them, and
the package ``__init__``s resolve the sweep executor's and the
exporter's names on first access (DESIGN.md "Performance", Start-up).

The module-set cases run in fresh interpreters and read ``sys.modules``
once the code under test has finished.
"""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
import repro.faults
import repro.trace
from repro.experiments import ExperimentConfig, config_digest
from repro.net.builder import FidelityConfig, PfcConfig
from repro.trace.config import TraceConfig

SRC = str(Path(repro.__file__).resolve().parents[1])

#: What a healthy, untraced, packet-level bench run never executes.
MACHINERY = ("concurrent.futures", "multiprocessing", "repro.runtime",
             "repro.trace.export", "repro.trace.tracer",
             "repro.trace.sampler", "repro.net.pfc", "repro.net.fidelity",
             "repro.faults.injector", "repro.telemetry")

_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def _machinery_loaded(code: str) -> set:
    """The :data:`MACHINERY` modules loaded once ``code`` has run in a
    fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        env={**os.environ, "PYTHONPATH": SRC}, check=True,
        capture_output=True, text=True, timeout=120)
    modules = json.loads(out.stdout.splitlines()[-1])
    return {name for name in modules
            if any(name == prefix or name.startswith(prefix + ".")
                   for prefix in MACHINERY)}


def _run(profile: str = "", changes: str = "") -> str:
    """A bench-profile incast-vertigo run of 1 ms, optionally altered."""
    return f"""
from dataclasses import replace
from repro.experiments import ExperimentConfig, run_experiment
from repro.faults import parse_faults
from repro.net.builder import FidelityConfig, PfcConfig
from repro.trace.config import TraceConfig
config = ExperimentConfig.bench_profile(
    sim_time_ns=1_000_000, bg_load=0.5, incast_load=0.25, incast_scale=12,
    {profile})
run_experiment(replace(config, {changes}))
"""


def _cli(*argv: str) -> str:
    return f"""
import runpy, sys
sys.argv = ["repro", *{list(argv)!r}]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
"""


@pytest.mark.parametrize("code", [
    "import repro",
    _run(),
    _cli("--help"),
    _cli("run", "--help"),
], ids=["import-repro", "bench-run", "cli-help", "cli-run-help"])
def test_no_machinery_loads_where_nothing_turns_it_on(code):
    assert _machinery_loaded(code) == set()


@pytest.mark.parametrize("profile, changes, expected", [
    ('system="ecmp", transport="dcqcn"',
     "pfc=PfcConfig(enabled=True, num_classes=2, priority_map=(0, 1))",
     {"repro.net.pfc"}),
    ("", 'fidelity=FidelityConfig(mode="hybrid")', {"repro.net.fidelity"}),
    ("", 'trace=TraceConfig(level="packet", sample_period_ns=100_000)',
     {"repro.trace.tracer", "repro.trace.sampler"}),
    ('faults=parse_faults(["link:leaf0-spine1:down@200us,up@600us"])', "",
     {"repro.faults.injector"}),
], ids=["pfc", "hybrid", "traced", "faulted"])
def test_a_config_loads_exactly_its_own_machinery(profile, changes,
                                                  expected):
    assert _machinery_loaded(_run(profile, changes)) == expected


@pytest.mark.parametrize("package", [repro, repro.trace, repro.faults],
                         ids=lambda package: package.__name__)
def test_every_public_name_still_resolves(package):
    star = {}
    exec(f"from {package.__name__} import *", star)
    assert set(package.__all__) <= set(star)
    assert set(package.__all__) <= set(dir(package))
    assert not hasattr(package, "no_such_name")


def test_lazy_names_are_the_defining_modules_objects():
    from repro.faults.injector import FaultInjector
    from repro.runtime import run_supervised
    from repro.trace.export import write_jsonl

    assert repro.trace.write_jsonl is write_jsonl
    assert repro.run_supervised is run_supervised
    assert repro.faults.FaultInjector is FaultInjector


#: ``(new path, path before the config classes moved)`` as a protocol-0
#: pickle spells a class.
_MOVED = [(b"repro.net.builder\nPfcConfig", b"repro.net.pfc\nPfcConfig"),
          (b"repro.net.builder\nFidelityConfig",
           b"repro.net.fidelity\nFidelityConfig"),
          (b"repro.trace.config\nTraceConfig",
           b"repro.trace.tracer\nTraceConfig")]


def test_a_config_pickled_under_the_old_class_paths_keeps_its_digest():
    config = replace(
        ExperimentConfig.bench_profile(sim_time_ns=1_000_000),
        pfc=PfcConfig(enabled=True, num_classes=2, priority_map=(0, 1)),
        fidelity=FidelityConfig(mode="hybrid"),
        trace=TraceConfig(level="packet"))
    data = pickle.dumps(config, protocol=0)
    for new, old in _MOVED:
        assert new in data
        data = data.replace(new, old)
    loaded = pickle.loads(data)
    assert (loaded.pfc, loaded.fidelity, loaded.trace) \
        == (config.pfc, config.fidelity, config.trace)
    # The digest hashes repr(), which names no module: the value recorded
    # before the classes moved (re-pinned once, when repr lost the
    # sanitize field).
    assert config_digest(loaded) == (
        "2ab9026e90b3c4b5817a50fd3644452f8282dc12d0950327c3c514903f4a6206")
