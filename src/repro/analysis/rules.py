"""The VR110, VR120 and VR140 rules.

Built on :mod:`repro.analysis.callgraph` (symbol table, call edges,
event-handler entry points) and run by :mod:`repro.analysis.driver`:

========  =====================================================================
Rule      Checks
========  =====================================================================
VR110     RNG stream ownership.  (a) Any call path from an event handler
          or forwarding policy to a global ``random.*`` draw or an
          *unseeded* ``random.Random()`` — reported at the sink with the
          witness call chain.  (b) Every literal stream name passed to
          ``.stream(...)`` must be declared in the module's
          ``RNG_STREAMS`` tuple (entries ending in ``:`` declare a
          prefix family, e.g. ``"linkloss:"``).
VR120     Digest-escaping mutable state: module globals (``global X``
          writes, mutations of module-level containers) and class
          attributes (``Cls.attr = ...``, ``type(self).attr``) written
          from event-handler-reachable code.  Such state survives the
          run, leaks across runs in one process, and is invisible to
          ``run_digest`` — attribute names that *are* digest inputs
          (parsed from ``experiments/digest.py``) are exempt.
VR140     Trace-hook registration: a module that uses ``_TRACE.<...>``
          must bind it via ``_TRACE = <hooks>.register(__name__)`` —
          the registry rewrites the global only in registered modules.
========  =====================================================================
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    Project,
    display_chain,
    walk_shallow,
)
from repro.analysis.lint import Violation

RULES_VR1XX: Dict[str, str] = {
    "VR100": "float/seconds value crosses into integer-nanosecond time",
    "VR110": "event-handler-reachable RNG draw outside named streams",
    "VR120": "digest-escaping mutable state written from handler code",
    "VR140": "module uses _TRACE hooks without registering for them",
    "VR150": "float arithmetic inside an integer-only (analytic/PFC) function",
}

HINTS_VR1XX: Dict[str, str] = {
    "VR100": "convert at the boundary: wrap in int()/round() where "
             "seconds/floats become *_ns, or keep the math integral",
    "VR110": "draw from a declared RngRegistry stream (add the name to "
             "the module's RNG_STREAMS tuple) wired in at build time",
    "VR120": "keep run state on instances created per run, or add the "
             "field to the digest inputs in experiments/digest.py",
    "VR140": "bind `_TRACE = <hooks>.register(__name__)` at module level; "
             "unregistered modules are never switched on",
    "VR150": "keep every intermediate integral: scale first, then "
             "floor-divide (//)",
}

_RANDOM_DRAWS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "sample", "shuffle", "gauss", "expovariate", "betavariate",
    "normalvariate", "lognormvariate", "paretovariate", "weibullvariate",
    "triangular", "vonmisesvariate", "gammavariate", "getrandbits",
    "seed",
})

_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popleft", "appendleft", "clear", "remove", "discard",
})


# -- VR110: RNG stream ownership -----------------------------------------------


def check_vr110(project: Project, graph: CallGraph) -> List[Violation]:
    violations: List[Violation] = []
    parents = graph.reachable()
    # (a) handler-reachable global draws / unseeded Random().
    for qualname in parents:
        func = project.functions.get(qualname)
        if func is None:
            continue
        for node in walk_shallow(func.node):
            if not isinstance(node, ast.Call):
                continue
            sink = _random_sink(node)
            if sink is None:
                continue
            chain = graph.witness_path(parents, qualname)
            violations.append(Violation(
                func.path, node.lineno, node.col_offset + 1, "VR110",
                f"{sink} is reachable from an event handler "
                f"(path: {display_chain(project, chain)})"))
    # (b) undeclared literal stream names.
    for module in project.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "stream" and node.args):
                continue
            name = _static_stream_name(node.args[0])
            if name is None:
                continue
            if not _stream_declared(module, name):
                declared = ", ".join(module.rng_streams or ()) or "(none)"
                violations.append(Violation(
                    module.path, node.lineno, node.col_offset + 1,
                    "VR110",
                    f"stream '{name}' is not declared in this module's "
                    f"RNG_STREAMS tuple (declared: {declared})"))
    return violations


def _random_sink(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "random":
        if func.attr == "Random":
            return None if node.args or node.keywords \
                else "unseeded random.Random()"
        if func.attr in _RANDOM_DRAWS:
            return f"global random.{func.attr}()"
        return None
    if isinstance(func, ast.Name) and func.id == "Random" \
            and not node.args and not node.keywords:
        return "unseeded Random()"
    return None


def _static_stream_name(node: ast.expr) -> Optional[str]:
    """Literal stream name, or the static prefix of an f-string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value
    return None


def _stream_declared(module: ModuleInfo, name: str) -> bool:
    declared = module.rng_streams
    if declared is None:
        return False
    for entry in declared:
        if entry == name:
            return True
        if entry.endswith(":") and name.startswith(entry):
            return True
    return False


# -- VR120: digest-escaping mutable state --------------------------------------


def digest_input_names(project: Project) -> Set[str]:
    """Attribute/key names the run digest covers (experiments/digest.py)."""
    names: Set[str] = set()
    for path, module in project.modules.items():
        if not path.replace("\\", "/").endswith("experiments/digest.py"):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names.add(node.value)
    return names


def check_vr120(project: Project, graph: CallGraph) -> List[Violation]:
    violations: List[Violation] = []
    parents = graph.reachable()
    digest_names = digest_input_names(project)
    for qualname in parents:
        func = project.functions.get(qualname)
        if func is None:
            continue
        module = project.modules.get(func.path)
        globals_declared = _global_names(func.node)
        for node in walk_shallow(func.node):
            hit = _escaping_write(node, func, module, globals_declared)
            if hit is None:
                continue
            name, kind = hit
            if name in digest_names:
                continue
            chain = graph.witness_path(parents, qualname)
            violations.append(Violation(
                func.path, node.lineno, node.col_offset + 1, "VR120",
                f"{kind} '{name}' written from event-handler-reachable "
                f"code escapes the run digest "
                f"(path: {display_chain(project, chain)})"))
    return violations


def _global_names(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for child in walk_shallow(node):
        if isinstance(child, ast.Global):
            names.update(child.names)
    return names


def _escaping_write(node: ast.AST, func: FunctionInfo,
                    module: Optional[ModuleInfo],
                    globals_declared: Set[str]
                    ) -> Optional[Tuple[str, str]]:
    """(name, kind) when ``node`` writes module/class-lifetime state."""
    module_names = module.module_bindings if module else set()
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            # global X; X = ...
            if isinstance(target, ast.Name) \
                    and target.id in globals_declared:
                return target.id, "module global"
            # ClassName.attr = ... / type(self).attr = ...
            if isinstance(target, ast.Attribute):
                owner = _class_owner(target.value, func)
                if owner is not None:
                    return f"{owner}.{target.attr}", "class attribute"
            # MODULE_LEVEL[k] = ...
            if isinstance(target, ast.Subscript) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id in module_names:
                return target.value.id, "module-level container"
    if isinstance(node, ast.Call):
        func_expr = node.func
        if isinstance(func_expr, ast.Attribute) \
                and func_expr.attr in _MUTATING_METHODS \
                and isinstance(func_expr.value, ast.Name) \
                and func_expr.value.id in module_names:
            return func_expr.value.id, "module-level container"
    return None


def _class_owner(value: ast.expr, func: FunctionInfo) -> Optional[str]:
    """Class name when ``value`` denotes a class object, else None."""
    if isinstance(value, ast.Name) and func.cls is not None \
            and value.id == func.cls:
        return value.id
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id == "type" and len(value.args) == 1 \
            and isinstance(value.args[0], ast.Name) \
            and value.args[0].id == "self":
        return func.cls or "type(self)"
    if isinstance(value, ast.Attribute) and value.attr == "__class__" \
            and isinstance(value.value, ast.Name) \
            and value.value.id == "self":
        return func.cls or "self.__class__"
    return None


# -- VR140: trace-hook registration ---------------------------------------------


def check_vr140(tree: ast.Module, path: str) -> List[Violation]:
    """Per-module check: a module that uses ``_TRACE`` registers it.

    ``hooks.activate`` rewrites ``_TRACE`` only in registered modules;
    one that binds it any other way (``_TRACE = None``) keeps every
    guard false forever and its hooks silently never fire.
    """
    if any(_registers_trace(stmt) for stmt in tree.body):
        return []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "_TRACE":
            return [Violation(
                path, node.lineno, node.col_offset + 1, "VR140",
                "module uses _TRACE but never registers it "
                "(_TRACE = <hooks>.register(__name__))")]
    return []


def _registers_trace(stmt: ast.stmt) -> bool:
    """Module-level ``_TRACE = <hooks>.register(...)``."""
    if not (isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)):
        return False
    func = stmt.value.func
    callee = func.attr if isinstance(func, ast.Attribute) \
        else func.id if isinstance(func, ast.Name) else None
    return callee == "register" and any(
        isinstance(target, ast.Name) and target.id == "_TRACE"
        for target in stmt.targets)
