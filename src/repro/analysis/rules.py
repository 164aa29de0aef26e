"""The VR110 rule — RNG stream declaration.

Every literal stream name passed to ``.stream(...)`` (or the static
prefix of an f-string) must be listed in the module's ``RNG_STREAMS``
tuple; entries ending in ``:`` declare a prefix family, e.g.
``"faultloss:"``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.lint import Violation


def check_vr110(tree: ast.Module, path: str) -> List[Violation]:
    declared = _declared_streams(tree)
    violations: List[Violation] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "stream" and node.args):
            continue
        name = _static_stream_name(node.args[0])
        if name is None or any(
                entry == name
                or (entry.endswith(":") and name.startswith(entry))
                for entry in declared):
            continue
        violations.append(Violation(
            path, node.lineno, node.col_offset + 1, "VR110",
            f"stream '{name}' is not declared in this module's "
            f"RNG_STREAMS tuple (declared: "
            f"{', '.join(declared) or '(none)'})"))
    return violations


def _declared_streams(tree: ast.Module) -> Tuple[str, ...]:
    """String entries of the module-level ``RNG_STREAMS`` constant."""
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        if any(isinstance(target, ast.Name) and target.id == "RNG_STREAMS"
               for target in targets) \
                and isinstance(stmt.value, (ast.Tuple, ast.List, ast.Set)):
            return tuple(elt.value for elt in stmt.value.elts
                         if isinstance(elt, ast.Constant)
                         and isinstance(elt.value, str))
    return ()


def _static_stream_name(node: ast.expr) -> Optional[str]:
    """Literal stream name, or the static prefix of an f-string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value
    return None
