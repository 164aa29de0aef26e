"""Rules VR001–VR004, the rule catalogue and the lint configuration.

The simulator's two load-bearing invariants — every stochastic draw flows
through :class:`~repro.sim.rng.RngRegistry` named streams, and all
quantities live in canonical integer units (time in nanoseconds, sizes in
bytes, rates in bits/s) — are conventions Python cannot enforce.  This
module enforces the part of them one file's AST can show:

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
========  =======================================================================

It also owns what every rule shares: :class:`Violation`, the one
catalogue of codes (:data:`RULES`, :data:`HINTS`), :class:`LintConfig`
and the ``[tool.repro.lint]`` loader (default paths, per-rule path
exemptions merged with the built-ins).  VR110/VR140 live in
:mod:`repro.analysis.rules`, VR100/VR150 in
:mod:`repro.analysis.dataflow`; every rule is a function of one file's
AST, and :mod:`repro.analysis.driver` runs them all and is the only
entry point (``python -m repro lint``).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

UNIT_SUFFIXES = ("_ns", "_bytes", "_bps")

#: The rule catalogue — every code ``repro lint`` can report besides
#: VR000 (unreadable / unparsable file), and the default selection.
RULES: Dict[str, str] = {
    "VR001": "stochastic draw bypasses RngRegistry named streams",
    "VR002": "wall-clock read inside simulation code",
    "VR003": "float value or unrounded true division on a unit quantity",
    "VR004": "module-lifetime mutable state",
    "VR090": "unused # noqa suppression",
    "VR100": "float/seconds value crosses into integer-nanosecond time",
    "VR110": "RNG stream name not declared in the module's RNG_STREAMS",
    "VR140": "module uses _TRACE hooks without registering for them",
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
    "VR140": "bind `_TRACE = <hooks>.register(__name__)` at module level; "
             "unregistered modules are never switched on",
    "VR150": "keep every intermediate integral: scale first, then "
             "floor-divide (//)",
}

#: Built-in per-rule path exemptions (fnmatch patterns over posix paths).
DEFAULT_EXEMPT: Dict[str, Tuple[str, ...]] = {
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


@dataclass
class LintConfig:
    """Effective linter configuration (defaults merged with pyproject)."""

    select: Tuple[str, ...] = tuple(RULES)
    exempt: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_EXEMPT))
    paths: Tuple[str, ...] = ("src",)


def load_config(pyproject: Optional[Path] = None) -> LintConfig:
    """Build a :class:`LintConfig` from ``[tool.repro.lint]`` if present.

    Configured ``paths`` are relative to the pyproject that declares them.
    """
    config = LintConfig()
    if pyproject is None:
        pyproject = _find_pyproject(Path.cwd())
    if pyproject is None or not pyproject.is_file():
        return config
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover - py<3.11 fallback
        return config
    with pyproject.open("rb") as handle:
        table = tomllib.load(handle)
    section = table.get("tool", {}).get("repro", {}).get("lint", {})
    if "paths" in section:
        config.paths = tuple(os.path.relpath(pyproject.parent / entry)
                             for entry in section["paths"])
    for code, patterns in section.get("exempt", {}).items():
        merged = config.exempt.get(code, ()) + tuple(patterns)
        config.exempt[code] = merged
    return config


def _find_pyproject(start: Path) -> Optional[Path]:
    for parent in (start, *start.parents):
        candidate = parent / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


# -- expression helpers --------------------------------------------------------


def _call_name(node: ast.Call) -> Optional[str]:
    """Terminal name of the called object (``itertools.count`` -> ``count``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _terminal_name(node: ast.expr) -> Optional[str]:
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
        return node if _call_name(node) == "float" else None
    if isinstance(node, ast.IfExp):
        return _float_taint(node.body) or _float_taint(node.orelse)
    return None


def _is_float_annotation(node: Optional[ast.expr]) -> bool:
    return node is not None and isinstance(node, ast.Name) \
        and node.id == "float"


# -- the checker ---------------------------------------------------------------


class _Checker(ast.NodeVisitor):
    """Single-file AST walk producing raw (unsuppressed) violations."""

    def __init__(self, path: str, select: Iterable[str]) -> None:
        self.path = path
        self.select = frozenset(select)
        self.violations: List[Violation] = []
        self._round_depth = 0
        self._scope_depth = 0  # >0 inside a function body

    # -- plumbing --------------------------------------------------------------

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        if code in self.select:
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

    # -- calls (VR001 / VR002 / VR003 keywords + rounding context) -------------

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
        # Keyword arguments carrying unit suffixes must stay integral.
        for keyword in node.keywords:
            if keyword.arg and _has_unit_suffix(keyword.arg) \
                    and _float_taint(keyword.value) is not None:
                self._flag(keyword.value, "VR003",
                           f"float value flows into keyword "
                           f"'{keyword.arg}'")
        if _call_name(node) in _ROUNDING_FUNCS:
            self.visit(func)
            self._round_depth += 1
            for arg in node.args:
                self.visit(arg)
            for keyword in node.keywords:
                self.visit(keyword)
            self._round_depth -= 1
        else:
            self.generic_visit(node)

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
            return _call_name(node) in _MUTABLE_FACTORIES
        return False


def exempt(path: str, code: str, config: LintConfig) -> bool:
    """Is ``path`` exempt from rule ``code`` under ``config``?"""
    posix = Path(path).as_posix()
    return any(fnmatch(posix, pattern)
               for pattern in config.exempt.get(code, ()))


def check_file(tree: ast.AST, path: str,
               select: Iterable[str]) -> List[Violation]:
    """Raw VR001–VR004 findings for one parsed module."""
    checker = _Checker(path, select)
    checker.visit(tree)
    return checker.violations
