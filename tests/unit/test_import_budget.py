"""A run imports only the modules its config names, and each name is
imported by one path.

Every module a fresh interpreter loads costs it that module's compile
time unless bytecode is cached, and start-up is what each CLI call,
ledger probe and pool of a sweep pays again.  So ``import repro``
loads no simulator module (the facade resolves each name on first
access), config modules import no machinery, and a run imports each
per-config part where it builds it: its own system's forwarding policy,
Vertigo's marking and ordering components for a Vertigo stack only,
each generator's module when a spec of its kind is built, the checkpoint
store when checkpointing, the scheduler's check under the sanitizer, and
the PFC and fidelity controllers, tracer, sampler and fault injector
when turned on.  ``repro lint``, ``repro trace-view``
and ``--help`` load no simulator module.  The sweep supervisor imports
every per-config module up front, because pool workers fork from it:
they would otherwise each compile what their point names.  Transports
stay eager (``repro.transport.TRANSPORTS`` is a plain dict the frozen
benchmark ledger imports).  DESIGN.md "Performance", Start-up.

The module-set cases run in fresh interpreters and read ``sys.modules``
once the code under test has finished.  The import census reads source
with ``ast``: a name is imported from the module that defines it, and
``repro`` is the only facade.
"""

import ast
import importlib.util
import json
import os
import pkgutil
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.experiments.config import ALL_SYSTEMS, ExperimentConfig
from repro.experiments.digest import config_digest
from repro.net.builder import FidelityConfig, PfcConfig
from repro.trace.config import TraceConfig

SRC = str(Path(repro.__file__).resolve().parents[1])
REPO = Path(SRC).parent

#: What a healthy, untraced, packet-level bench run never executes.
MACHINERY = ("concurrent.futures", "multiprocessing", "repro.runtime",
             "repro.trace.export", "repro.trace.tracer",
             "repro.trace.sampler", "repro.net.pfc", "repro.net.fidelity",
             "repro.faults.injector")

_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


#: What a bench run of ECMP never loads: it names none of it.
NOT_IN_AN_ECMP_RUN = (
    "repro.forwarding.vertigo", "repro.forwarding.drill",
    "repro.forwarding.dibs", "repro.forwarding.letflow",
    "repro.forwarding.pabo", "repro.core.marking", "repro.core.cuckoo",
    "repro.core.ordering", "repro.core.scheduler", "repro.checkpoint.store",
    "repro.workload.coflow", "repro.experiments.parallel",
    "repro.experiments.digest")

#: Every module a run imports only when its config names it: what the
#: sweep supervisor compiles before its pool workers fork.
PER_CONFIG = NOT_IN_AN_ECMP_RUN + (
    "repro.forwarding.ecmp", "repro.workload.incast", "repro.net.pfc",
    "repro.net.fidelity", "repro.trace.tracer", "repro.trace.sampler",
    "repro.faults.injector")

#: Packages no tool command (``lint``, ``trace-view``, ``--help``) loads.
SIMULATOR = ("repro.sim", "repro.net", "repro.host", "repro.transport",
             "repro.forwarding", "repro.core", "repro.workload",
             "repro.metrics", "repro.experiments", "repro.checkpoint",
             "repro.faults", "repro.runtime")


def _last_line(code: str):
    """The JSON value of the last stdout line of ``code``, run in a
    fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC}, check=True,
        capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def _loaded(code: str) -> set:
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    return set(_last_line(code + _REPORT))


def _under(modules: set, prefixes) -> set:
    return {name for name in modules
            if any(name == prefix or name.startswith(prefix + ".")
                   for prefix in prefixes)}


def _machinery_loaded(code: str) -> set:
    """The :data:`MACHINERY` modules loaded once ``code`` has run in a
    fresh interpreter."""
    return _under(_loaded(code), MACHINERY)


def _run(profile: str = "", changes: str = "") -> str:
    """A bench-profile incast-vertigo run of 1 ms, optionally altered."""
    return f"""
from dataclasses import replace
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.spec import parse_faults
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


def test_import_repro_loads_the_facade_alone():
    assert _under(_loaded("import repro"), ("repro",)) == {"repro"}


def test_the_module_lists_name_real_modules():
    assert all(importlib.util.find_spec(name) is not None
               for name in PER_CONFIG)


def test_an_ecmp_run_loads_no_module_its_config_does_not_name():
    loaded = _loaded(_run('system="ecmp"'))
    assert "repro.forwarding.ecmp" in loaded
    assert loaded & set(NOT_IN_AN_ECMP_RUN) == set()


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_each_system_loads_exactly_its_own_policy(system):
    loaded = _loaded(_run(f"system={system!r}"))
    assert _under(loaded, ("repro.forwarding",)) == {
        "repro.forwarding", "repro.forwarding.base",
        f"repro.forwarding.{system}"}
    vertigo_host = {"repro.core.marking", "repro.core.ordering"}
    assert loaded & vertigo_host == (
        vertigo_host if system == "vertigo" else set())


def test_the_supervisor_compiles_every_per_config_module_before_forking():
    """What a pool worker forks from already holds every module a point
    may name, so a run of any config loads nothing new."""
    missing, new = _last_line(f"""
import json, sys, tempfile
from dataclasses import replace
import repro.runtime.supervisor
before = set(sys.modules)
missing = sorted(set({list(PER_CONFIG)!r}) - before)
from repro.analysis import sanitize
from repro.checkpoint.config import CheckpointConfig
from repro.experiments.config import (
    ALL_SYSTEMS, ExperimentConfig, WorkloadConfig)
from repro.experiments.runner import run_experiment
from repro.faults.spec import parse_faults
from repro.net.builder import FidelityConfig, PfcConfig
from repro.trace.config import TraceConfig
from repro.workload.spec import parse_workloads
def bench(system, **changes):
    return replace(ExperimentConfig.bench_profile(
        system=system, sim_time_ns=1_000_000, bg_load=0.5,
        incast_load=0.25, incast_scale=12), **changes)
configs = [bench(system) for system in ALL_SYSTEMS]
configs.append(bench("vertigo", fidelity=FidelityConfig(mode="hybrid")))
with tempfile.TemporaryDirectory() as directory:
    configs.append(bench(
        "ecmp", transport_name="dcqcn",
        pfc=PfcConfig(enabled=True, num_classes=2, priority_map=(0, 1)),
        trace=TraceConfig(level="packet", sample_period_ns=100_000),
        faults=parse_faults(["link:leaf0-spine1:down@200us,up@600us"]),
        workload=WorkloadConfig(parse_workloads(
            ["coflow:width=4,load=0.1", "duty_cycle:load=0.2,duty=0.5"])),
        checkpoint=CheckpointConfig(every_ns=500_000, directory=directory)))
    with sanitize.scoped(True):
        for config in configs:
            run_experiment(config)
print(json.dumps([missing, sorted(name for name in set(sys.modules) - before
                                  if name.startswith("repro."))]))
""")
    assert missing == []
    assert new == []


@pytest.mark.parametrize("argv", [
    ("--help",), ("lint", "examples"), ("trace-view", "no-such.jsonl")],
    ids=["help", "lint", "trace-view"])
def test_a_tool_command_loads_no_simulator_module(argv):
    assert _under(_loaded(_cli(*argv)), SIMULATOR) == set()


#: The only names a subpackage ``__init__`` binds besides its
#: submodules: the frozen benchmark ledger imports them from there.
LEDGER_PINNED = {"repro.runtime": {"SupervisorPolicy", "run_supervised"},
                 "repro.checkpoint": {"CheckpointConfig"},
                 "repro.transport": {"TRANSPORTS"}}


def _subpackages() -> dict:
    """``{"repro.<pkg>": the names of its submodules}``."""
    return {f"repro.{init.parent.name}":
            {module.name for module in pkgutil.iter_modules([init.parent])}
            for init in sorted((Path(SRC) / "repro").glob("*/__init__.py"))}


def _bound_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.asname or alias.name).split(".")[0]
                        for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_a_subpackage_init_binds_no_name_but_the_ledgers():
    packages = _subpackages()
    assert len(packages) == 15
    extra = {}
    for package, submodules in packages.items():
        init = Path(SRC, *package.split("."), "__init__.py")
        names = set(_bound_names(ast.parse(init.read_text())))
        names -= submodules | LEDGER_PINNED.get(package, set())
        if names:
            extra[package] = sorted(names)
    assert extra == {}


def test_every_name_is_imported_from_the_module_that_defines_it():
    packages = _subpackages()
    facade_imports = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.ImportFrom) and node.level == 0
                        and node.module in packages):
                    continue
                allowed = (packages[node.module]
                           | LEDGER_PINNED.get(node.module, set()))
                facade_imports += [
                    f"{path.relative_to(REPO)}:{node.lineno}: "
                    f"from {node.module} import {alias.name}"
                    for alias in node.names if alias.name not in allowed]
    assert not facade_imports, facade_imports


@pytest.mark.parametrize("package", [repro],
                         ids=lambda package: package.__name__)
def test_every_public_name_still_resolves(package):
    star = {}
    exec(f"from {package.__name__} import *", star)
    assert set(package.__all__) <= set(star)
    assert set(package.__all__) <= set(dir(package))
    assert not hasattr(package, "no_such_name")


def test_lazy_names_are_the_defining_modules_objects():
    from repro.runtime.supervisor import run_supervised

    assert repro.run_supervised is run_supervised


#: ``(new path, path before the config classes moved)`` as a protocol-0
#: pickle spells a class.
_MOVED = [(b"repro.net.builder\nPfcConfig", b"repro.net.pfc\nPfcConfig"),
          (b"repro.net.builder\nFidelityConfig",
           b"repro.net.fidelity\nFidelityConfig"),
          (b"repro.trace.config\nTraceConfig",
           b"repro.trace.tracer\nTraceConfig"),
          (b"repro.forwarding.base\nVertigoSwitchParams",
           b"repro.forwarding.vertigo\nVertigoSwitchParams")]


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
    assert (loaded.pfc, loaded.fidelity, loaded.trace, loaded.system) \
        == (config.pfc, config.fidelity, config.trace, config.system)
    # The digest hashes repr(), which names no module: the value recorded
    # before the classes moved (re-pinned when repr lost the sanitize
    # field, when the eight fields only tests set became constants, and
    # when it lost ``telemetry_interval_ns``).
    assert config_digest(loaded) == (
        "1a9ff7fd4b83b2c5a7abf0b85ede1bdff7ad060b8d76c94a5f8b2a8053e1ae57")
