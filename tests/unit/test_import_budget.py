"""A run imports only the machinery its config turns on, and each name
is imported by one path.

Every module a fresh interpreter loads costs it that module's compile
time unless bytecode is cached, and start-up is what each sweep point,
pool worker and CLI call pays again.  Config modules therefore import no
machinery, ``_build_world`` imports the PFC and fidelity controllers,
the tracer, the sampler and the fault injector where it builds them, and
``repro`` resolves the sweep executor's names on first access
(DESIGN.md "Performance", Start-up).

The module-set cases run in fresh interpreters and read ``sys.modules``
once the code under test has finished.  The import census reads source
with ``ast``: a name is imported from the module that defines it, and
``repro`` is the only facade.
"""

import ast
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
from repro.experiments.config import ExperimentConfig
from repro.experiments.digest import config_digest
from repro.net.builder import FidelityConfig, PfcConfig
from repro.trace.config import TraceConfig

SRC = str(Path(repro.__file__).resolve().parents[1])
REPO = Path(SRC).parent

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
    for top in ("src", "tests", "benchmarks", "examples", "scripts"):
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
