"""Rules VR001–VR004 and VR110, the rule catalogue and the path exemptions.

One AST walk per file (:func:`check_file`) checks:

========  =======================================================================
Rule      Checks
========  =======================================================================
VR001     No ``random.Random(...)`` construction and no module-level
          ``random.*`` calls (or ``from random import ...`` of callables)
          outside ``sim/rng.py``.  Type annotations such as
          ``rng: random.Random`` are fine — only *calls* draw entropy.
VR002     No wall-clock reads (``time.time``, ``time.perf_counter``,
          ``time.monotonic``, ``datetime.now``, ...) inside simulation
          code; benchmarks are exempt.
VR003     Unit discipline: no float-typed values flowing into names,
          attributes, keyword arguments or parameters suffixed ``_ns`` /
          ``_bytes`` / ``_bps``, and no true division (``/``) touching such
          a quantity unless wrapped in ``round()`` / ``int()`` /
          ``floor()`` / ``ceil()`` / ``trunc()``.
VR004     No module-lifetime mutable state in ``repro.*``: module- or
          class-level assignments of mutable containers (or factories such
          as ``itertools.count()``) to non-CONSTANT-case names.
VR110     Every literal ``.stream(...)`` name (or an f-string's static
          prefix) is listed in the module's ``RNG_STREAMS`` tuple;
          entries ending in ``:`` declare a prefix family.
========  =======================================================================

It also owns what every rule shares: :class:`Violation`, the one
catalogue of codes (:data:`RULES`, :data:`HINTS`) and the per-rule path
exemptions (:data:`EXEMPT`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

UNIT_SUFFIXES = ("_ns", "_bytes", "_bps")

#: The rule catalogue — every code ``repro lint`` can report besides
#: VR000 (unreadable / unparsable file); every rule always runs.
RULES: Dict[str, str] = {
    "VR001": "stochastic draw bypasses RngRegistry named streams",
    "VR002": "wall-clock read inside simulation code",
    "VR003": "float value or unrounded true division on a unit quantity",
    "VR004": "module-lifetime mutable state",
    "VR090": "unused # noqa suppression",
    "VR100": "float/seconds value crosses into integer-nanosecond time",
    "VR110": "RNG stream name not declared in the module's RNG_STREAMS",
    "VR150": "float arithmetic inside an integer-only (analytic/PFC) function",
}

HINTS: Dict[str, str] = {
    "VR001": "draw from RngRegistry.stream(<name>) (repro.sim.rng) so runs "
             "stay bit-reproducible and component-independent",
    "VR002": "use Engine.now (integer simulated ns); wall clocks break "
             "reproducibility",
    "VR003": "keep *_ns/*_bytes/*_bps integral: wrap in round()/int() or "
             "use // floor division",
    "VR004": "move the state into an instance (or rename to CONSTANT_CASE "
             "if it is genuinely immutable after import)",
    "VR090": "delete the stale code from the # noqa comment",
    "VR100": "convert at the boundary: wrap in int()/round() where "
             "seconds/floats become *_ns, or keep the math integral",
    "VR110": "draw from a declared RngRegistry stream (add the name to "
             "the module's RNG_STREAMS tuple) wired in at build time",
    "VR150": "keep every intermediate integral: scale first, then "
             "floor-divide (//)",
}

#: Per-rule path exemptions (fnmatch patterns over posix paths): the RNG
#: registry is the one ``random.Random`` factory, the units module the
#: one float<->int boundary, and benchmarks may read wall clocks to time
#: themselves (simulation code itself never may).
EXEMPT: Dict[str, Tuple[str, ...]] = {
    "VR001": ("*/sim/rng.py",),
    "VR002": ("benchmarks/*", "*/benchmarks/*"),
    "VR003": ("*/sim/units.py",),
}

_WALL_CLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "thread_time",
    "thread_time_ns",
})
_WALL_CLOCK_DT_ATTRS = frozenset({"now", "utcnow", "today"})
_ROUNDING_FUNCS = frozenset({"round", "int", "floor", "ceil", "trunc"})
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
    "OrderedDict", "ChainMap", "count", "cycle",
})

@dataclass(frozen=True)
class Violation:
    """One rule hit at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str



# -- expression helpers --------------------------------------------------------


def _terminal_name(node: ast.expr) -> Optional[str]:
    """``x`` -> ``x``, ``a.b.x`` -> ``x``; a call's is its callee's
    (``itertools.count``: ``count``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _has_unit_suffix(name: Optional[str]) -> bool:
    return name is not None and name.endswith(UNIT_SUFFIXES)


def _mentions_unit_name(node: ast.expr) -> bool:
    """Does any name/attribute inside ``node`` carry a unit suffix?"""
    for child in ast.walk(node):
        if _has_unit_suffix(_terminal_name(child)) \
                and isinstance(child, (ast.Name, ast.Attribute)):
            return True
    return False


def _float_taint(node: ast.expr) -> Optional[ast.expr]:
    """Return the sub-expression proving ``node`` is float-valued, if any.

    Conservative: opaque calls and names are assumed integral;
    ``round``/``int``/``floor``/``ceil``/``trunc`` clear taint, true
    division and float literals introduce it.
    """
    if isinstance(node, ast.Constant):
        return node if isinstance(node.value, float) else None
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return node
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Mod,
                                ast.Pow)):
            return _float_taint(node.left) or _float_taint(node.right)
        return None
    if isinstance(node, ast.UnaryOp):
        return _float_taint(node.operand)
    if isinstance(node, ast.Call):
        return node if _terminal_name(node.func) == "float" else None
    if isinstance(node, ast.IfExp):
        return _float_taint(node.body) or _float_taint(node.orelse)
    return None


def _static_stream_name(node: ast.expr) -> Optional[str]:
    """Literal stream name, or the static prefix of an f-string."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


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


def _is_float_annotation(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Name) and node.id == "float"


# -- the checker ---------------------------------------------------------------


class _Checker(ast.NodeVisitor):
    """Single-file AST walk producing raw (unsuppressed) violations."""

    def __init__(self, path: str, streams: Tuple[str, ...]) -> None:
        self.path = path
        self.streams = streams  # the module's RNG_STREAMS entries
        self.violations: List[Violation] = []
        self._round_depth = 0
        self._scope_depth = 0  # >0 inside a function body

    # -- plumbing --------------------------------------------------------------

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(Violation(
            self.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0) + 1, code, message))

    # -- imports (VR001 / VR002) ----------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            names = ", ".join(alias.name for alias in node.names)
            self._flag(node, "VR001",
                       f"'from random import {names}' pulls module-level "
                       f"entropy into scope")
        elif node.module == "time":
            clocks = [alias.name for alias in node.names
                      if alias.name in _WALL_CLOCK_TIME_ATTRS]
            if clocks:
                self._flag(node, "VR002",
                           f"imports wall clock(s) {', '.join(clocks)} "
                           f"from time")
        self.generic_visit(node)

    # -- calls (VR001 / VR002 / VR110 / VR003 keywords + rounding context) -----

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = _terminal_name(func.value)
            if base == "random":
                self._flag(node, "VR001",
                           f"call random.{func.attr}(...) uses the global "
                           f"random module")
            elif base == "time" and func.attr in _WALL_CLOCK_TIME_ATTRS:
                self._flag(node, "VR002", f"call time.{func.attr}() reads "
                                          f"the wall clock")
            elif func.attr in _WALL_CLOCK_DT_ATTRS \
                    and base in ("datetime", "date"):
                self._flag(node, "VR002", f"call {base}.{func.attr}() reads "
                                          f"the wall clock")
            if func.attr == "stream" and node.args:
                self._check_stream(node)
        # Keyword arguments carrying unit suffixes must stay integral.
        for keyword in node.keywords:
            if keyword.arg and _has_unit_suffix(keyword.arg) \
                    and _float_taint(keyword.value) is not None:
                self._flag(keyword.value, "VR003",
                           f"float value flows into keyword "
                           f"'{keyword.arg}'")
        if _terminal_name(node.func) in _ROUNDING_FUNCS:
            self.visit(func)
            self._round_depth += 1
            for arg in node.args:
                self.visit(arg)
            for keyword in node.keywords:
                self.visit(keyword)
            self._round_depth -= 1
        else:
            self.generic_visit(node)

    def _check_stream(self, node: ast.Call) -> None:
        name = _static_stream_name(node.args[0])
        if name is None or any(
                entry == name or (entry.endswith(":")
                                  and name.startswith(entry))
                for entry in self.streams):
            return
        self._flag(node, "VR110",
                   f"stream '{name}' is not declared in this module's "
                   f"RNG_STREAMS tuple (declared: "
                   f"{', '.join(self.streams) or '(none)'})")

    # -- unit discipline (VR003) ----------------------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div) and self._round_depth == 0 \
                and (_mentions_unit_name(node.left)
                     or _mentions_unit_name(node.right)):
            self._flag(node, "VR003",
                       "true division on a *_ns/*_bytes/*_bps quantity "
                       "produces a float")
        self.generic_visit(node)

    def _check_unit_binding(self, target: ast.expr,
                            value: Optional[ast.expr]) -> None:
        name = _terminal_name(target)
        if not _has_unit_suffix(name) or value is None:
            return
        taint = _float_taint(value)
        if taint is not None:
            self._flag(value, "VR003",
                       f"float value assigned to '{name}'")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Name, ast.Attribute)):
                self._check_unit_binding(target, node.value)
        self._check_module_state(node, node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = _terminal_name(node.target)
        if _has_unit_suffix(name):
            if _is_float_annotation(node.annotation):
                self._flag(node.annotation, "VR003",
                           f"'{name}' annotated as float; unit-suffixed "
                           f"quantities are integers")
            self._check_unit_binding(node.target, node.value)
        if node.value is not None:
            self._check_module_state(node, [node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = _terminal_name(node.target)
        if _has_unit_suffix(name):
            if isinstance(node.op, ast.Div):
                self._flag(node, "VR003",
                           f"'{name} /= ...' turns the quantity into a "
                           f"float")
            else:
                self._check_unit_binding(node.target, node.value)
        self.generic_visit(node)

    def _visit_functiondef(self, node) -> None:
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if _has_unit_suffix(arg.arg) \
                    and _is_float_annotation(arg.annotation):
                self._flag(arg, "VR003",
                           f"parameter '{arg.arg}' annotated as float")
        defaults = list(args.defaults) + list(args.kw_defaults)
        params = list(args.posonlyargs) + list(args.args)
        # Positional defaults align with the tail of the parameter list.
        for arg, default in zip(params[len(params) - len(args.defaults):],
                                args.defaults):
            if _has_unit_suffix(arg.arg) and default is not None:
                self._check_unit_binding(
                    ast.Name(id=arg.arg, lineno=default.lineno,
                             col_offset=default.col_offset), default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if _has_unit_suffix(arg.arg) and default is not None:
                self._check_unit_binding(
                    ast.Name(id=arg.arg, lineno=default.lineno,
                             col_offset=default.col_offset), default)
        self._scope_depth += 1
        self.generic_visit(node)
        self._scope_depth -= 1

    visit_FunctionDef = _visit_functiondef
    visit_AsyncFunctionDef = _visit_functiondef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._scope_depth += 1
        self.generic_visit(node)
        self._scope_depth -= 1

    # -- module-lifetime mutable state (VR004) ---------------------------------

    def _check_module_state(self, node: ast.AST,
                            targets: Sequence[ast.expr],
                            value: ast.expr) -> None:
        if self._scope_depth > 0:  # locals are fine
            return
        if not self._is_mutable_value(value):
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name.startswith("__") and name.endswith("__"):
                continue  # dunders (__all__, ...) are interface, not state
            if name.upper() == name:
                continue  # CONSTANT_CASE: registry/constant by convention
            self._flag(node, "VR004",
                       f"'{name}' holds mutable state for the lifetime of "
                       f"the module/class")

    @staticmethod
    def _is_mutable_value(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _terminal_name(node.func) in _MUTABLE_FACTORIES
        return False


def exempt(path: str, code: str) -> bool:
    """Is ``path`` exempt from rule ``code``?"""
    posix = Path(path).as_posix()
    return any(fnmatch(posix, pattern) for pattern in EXEMPT.get(code, ()))


def check_file(tree: ast.Module, path: str) -> List[Violation]:
    """Raw VR001–VR004 and VR110 findings for one parsed module."""
    checker = _Checker(path, _declared_streams(tree))
    checker.visit(tree)
    return checker.violations
