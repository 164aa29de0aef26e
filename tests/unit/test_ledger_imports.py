"""What the frozen benchmark ledger imports from ``repro`` still exists.

``benchmarks/ledger/`` is not edited alongside ``src/``, and its own
self-tests are not tier-1, so a module or name deleted from ``src/`` that
the ledger uses would break ``run.py --spans`` (and CI's budget table)
with nothing in tier-1 noticing.  This reads the ledger's files with
``ast`` — it never imports or edits them — and resolves every module in
``spans.PRELOAD`` and every ``from repro… import …`` they contain.
"""

import ast
import importlib
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"


def _preload():
    tree = ast.parse((LEDGER / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "PRELOAD"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/ledger/spans.py defines no PRELOAD")


def _repro_imports():
    """``(file, module, name)`` for every ``from repro… import name``."""
    found = []
    for path in sorted(LEDGER.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "repro":
                found += [(path.name, node.module, alias.name)
                          for alias in node.names]
    return found


@pytest.mark.parametrize("module", _preload())
def test_preloaded_module_resolves(module):
    importlib.import_module(module)


def test_every_name_the_ledger_imports_resolves():
    imports = _repro_imports()
    assert len(imports) > 20          # the walk really found the ledger
    missing = []
    for path, module, name in imports:
        found = importlib.import_module(module)
        if not hasattr(found, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{path}: from {module} import {name}")
    assert not missing, missing
