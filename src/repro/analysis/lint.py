"""Every ``repro lint`` rule, the rule catalogue and the path exemptions.

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
VR003     Unit discipline: no float reaching a name, attribute, keyword
          argument, parameter default or function ``return`` suffixed
          ``_ns`` / ``_bytes`` / ``_bps``; no ``float`` annotation on
          one; no true division (``/``) touching one unless wrapped in
          ``round()`` / ``int()`` / ``floor()`` / ``ceil()`` /
          ``trunc()``.
VR004     No module-lifetime mutable state in ``repro.*``: module- or
          class-level assignments of mutable containers (or factories such
          as ``itertools.count()``) to non-CONSTANT-case names.
VR110     Every literal ``.stream(...)`` name (or an f-string's static
          prefix) is listed in the module's ``RNG_STREAMS`` tuple;
          entries ending in ``:`` declare a prefix family.
VR150     Inside an *integer-only* function, one whose own or class name
          contains an :data:`INTEGER_ONLY_MARKERS` entry (the analytic
          completion-time and PFC control paths), every float binding,
          ``/=`` and ``return``: each intermediate there ends in an event
          time or is compared with an integer byte counter.
========  =======================================================================

"Is this a float?" has one answer, :meth:`_Checker._infer`: float
literals, ``float()``, true division and seconds-suffixed names, calls
and attributes are floats, rounding calls and ``//`` are not, and each
module, class and function body keeps an environment of what its own
names were bound to (branches share it; a nested ``def`` is a scope of
its own; no call is resolved).  A statement gets at most one VR003 or
VR150 finding.

It also owns what every rule shares: :class:`Violation`, the one
catalogue of codes (:data:`RULES`, :data:`HINTS`) and the per-rule path
exemptions (:data:`EXEMPT`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

UNIT_SUFFIXES = ("_ns", "_bytes", "_bps")

#: Name suffixes of seconds, floats by convention.
SECONDS_SUFFIXES = ("_seconds", "_secs", "_sec", "_s")

#: A function is integer-only when its name, or its enclosing class's,
#: contains one of these: the analytic completion-time path and the PFC
#: control path (every ``PfcGate`` / ``PfcController`` method).
INTEGER_ONLY_MARKERS = ("analytic", "pause", "pfc", "xoff", "xon",
                        "threshold")

#: The rule catalogue — every code ``repro lint`` can report besides
#: VR000 (unreadable / unparsable file); every rule always runs.
RULES: Dict[str, str] = {
    "VR001": "stochastic draw bypasses RngRegistry named streams",
    "VR002": "wall-clock read inside simulation code",
    "VR003": "float value or unrounded true division on a unit quantity",
    "VR004": "module-lifetime mutable state",
    "VR090": "unused # noqa suppression",
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
_FLOAT_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.Pow)

#: Why an expression is a float, or ``None`` when it is not one.
Why = Optional[str]


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


def _suffixed(name: Optional[str], suffixes: Tuple[str, ...]) -> bool:
    """Whether ``name`` ends in one of ``suffixes`` (a bare suffix is
    no name)."""
    return bool(name) and any(name.endswith(suffix) and name != suffix
                              for suffix in suffixes)


def _has_unit_suffix(name: Optional[str]) -> bool:
    return _suffixed(name, UNIT_SUFFIXES)


def _mentions_unit_name(node: ast.expr) -> bool:
    """Does any name/attribute inside ``node`` carry a unit suffix?"""
    return any(isinstance(child, (ast.Name, ast.Attribute))
               and _has_unit_suffix(_terminal_name(child))
               for child in ast.walk(node))


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


@dataclass
class _Scope:
    """A module, class or function body and what its names are bound to."""

    name: str = ""
    function: bool = False
    local: bool = False  # inside some function: no module-lifetime state
    strict: bool = False  # an integer-only function (VR150)
    env: Dict[str, Why] = field(default_factory=dict)


class _Checker(ast.NodeVisitor):
    """Single-file AST walk producing raw (unsuppressed) violations."""

    def __init__(self, path: str, streams: Tuple[str, ...]) -> None:
        self.path = path
        self.streams = streams  # the module's RNG_STREAMS entries
        self.violations: List[Violation] = []
        self.scope = _Scope()
        self._round_depth = 0
        self._unit_hit = False  # the statement has a VR003/VR150 finding

    # -- plumbing --------------------------------------------------------------

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(Violation(
            self.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0) + 1, code, message))

    def _unit(self, node: ast.AST, code: str, message: str) -> None:
        """A VR003/VR150 finding, unless the statement already has one."""
        if not self._unit_hit:
            self._unit_hit = True
            self._flag(node, code, message)

    def visit(self, node: ast.AST) -> None:
        # Each statement, nested ones included, starts with no finding.
        if not isinstance(node, ast.stmt):
            return super().visit(node)
        outer, self._unit_hit = self._unit_hit, False
        super().visit(node)
        self._unit_hit = outer

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
        for keyword in node.keywords:
            if _has_unit_suffix(keyword.arg):
                self._into(f"keyword '{keyword.arg}'", keyword.value,
                           self._infer(keyword.value))
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

    # -- float provenance (VR003 / VR150) --------------------------------------

    def _infer(self, node: ast.expr) -> Why:
        """Why ``node`` is a float in the current scope, or ``None``."""
        if isinstance(node, ast.Constant):
            return f"float literal {node.value!r}" \
                if isinstance(node.value, float) else None
        if isinstance(node, ast.Name) and node.id in self.scope.env:
            return self.scope.env[node.id]
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = _terminal_name(node)
            return f"'{name}'" if _suffixed(name, SECONDS_SUFFIXES) else None
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return "true division"
            if isinstance(node.op, _FLOAT_OPS):
                return self._infer(node.left) or self._infer(node.right)
            return None
        if isinstance(node, ast.UnaryOp):
            return self._infer(node.operand)
        if isinstance(node, (ast.IfExp, ast.BoolOp)):
            values = [node.body, node.orelse] \
                if isinstance(node, ast.IfExp) else node.values
            return next(filter(None, map(self._infer, values)), None)
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if name == "float":
                return "float() conversion"
            return f"call '{name}()'" \
                if _suffixed(name, SECONDS_SUFFIXES) else None
        if isinstance(node, ast.NamedExpr):
            why = self._infer(node.value)
            self.scope.env[node.target.id] = why
            return why
        return None

    def _into(self, what: str, value: ast.expr, why: Why) -> None:
        if why:
            self._unit(value, "VR003",
                       f"float value flows into {what}: {why}")

    def _strict(self, stmt: ast.stmt, what: str) -> None:
        self._unit(stmt, "VR150",
                   f"float arithmetic in integer-only function "
                   f"'{self.scope.name}': {what}; analytic-path and PFC "
                   f"results feed the integer-ns calendar and integer byte "
                   f"counters")

    def _bind(self, stmt: ast.stmt, targets: Sequence[ast.expr],
              value: ast.expr, why: Why) -> None:
        """Check one binding, then fold it into the scope's environment."""
        names = [_terminal_name(target) for target in targets]
        if why and self.scope.strict:
            self._strict(stmt, f"'{next(filter(None, names), '<target>')}' "
                               f"gets a float ({why})")
        for name in filter(_has_unit_suffix, names):
            self._into(f"'{name}'", value, why)
        for target in targets:
            if isinstance(target, ast.Name):
                self.scope.env[target.id] = why

    def visit_Assign(self, node: ast.Assign) -> None:
        self._bind(node, node.targets, node.value, self._infer(node.value))
        self._check_module_state(node, node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = _terminal_name(node.target)
        if _has_unit_suffix(name) and _is_float_annotation(node.annotation):
            self._unit(node.annotation, "VR003",
                       f"'{name}' annotated as float; unit-suffixed "
                       f"quantities are integers")
        if node.value is not None:
            self._bind(node, [node.target], node.value,
                       self._infer(node.value))
            self._check_module_state(node, [node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Div):
            why = "augmented true division"
        else:
            why = self._infer(node.value) or (
                self.scope.env.get(node.target.id)
                if isinstance(node.target, ast.Name) else None)
        self._bind(node, [node.target], node.value, why)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        scope = self.scope
        if node.value is not None and (
                scope.strict or (scope.function
                                 and _has_unit_suffix(scope.name))):
            why = self._infer(node.value)
            if why and scope.strict:
                self._strict(node, f"returns a float ({why})")
            self._into(f"the return of '{scope.name}'", node.value, why)
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div) and self._round_depth == 0 \
                and (_mentions_unit_name(node.left)
                     or _mentions_unit_name(node.right)):
            self._unit(node, "VR003",
                       "true division on a *_ns/*_bytes/*_bps quantity "
                       "produces a float")
        self.generic_visit(node)

    # -- scopes ----------------------------------------------------------------

    def _visit_body(self, body: List[ast.stmt], scope: _Scope) -> None:
        outer, self.scope = self.scope, scope
        for stmt in body:
            self.visit(stmt)
        self.scope = outer

    def _visit_functiondef(self, node) -> None:
        # Decorators, annotations and defaults belong to the outer scope.
        args = node.args
        params = [*args.posonlyargs, *args.args]
        defaults = [*zip(params[len(params) - len(args.defaults):],
                         args.defaults),
                    *zip(args.kwonlyargs, args.kw_defaults)]
        for arg, default in defaults:
            if default is not None and _has_unit_suffix(arg.arg):
                self._into(f"'{arg.arg}'", default, self._infer(default))
        env: Dict[str, Why] = {}
        for arg in (*params, *args.kwonlyargs):
            if not _is_float_annotation(arg.annotation):
                continue
            if _has_unit_suffix(arg.arg):
                self._unit(arg, "VR003",
                           f"parameter '{arg.arg}' annotated as float")
            else:
                env[arg.arg] = f"parameter '{arg.arg}'"
        for child in (*node.decorator_list, args, node.returns):
            if child is not None:
                self.visit(child)
        outer = self.scope
        owner = "" if outer.function else outer.name
        self._visit_body(node.body, _Scope(
            node.name, function=True, local=True, env=env,
            strict=any(marker in f"{node.name} {owner}".lower()
                       for marker in INTEGER_ONLY_MARKERS)))

    visit_FunctionDef = _visit_functiondef
    visit_AsyncFunctionDef = _visit_functiondef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for child in (*node.decorator_list, *node.bases, *node.keywords):
            self.visit(child)
        self._visit_body(node.body, _Scope(node.name, local=self.scope.local))

    # -- module-lifetime mutable state (VR004) ---------------------------------

    def _check_module_state(self, node: ast.AST,
                            targets: Sequence[ast.expr],
                            value: ast.expr) -> None:
        if self.scope.local or not self._is_mutable_value(value):
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
    """Raw findings of every rule but VR090 for one parsed module."""
    checker = _Checker(path, _declared_streams(tree))
    checker.visit(tree)
    return checker.violations
