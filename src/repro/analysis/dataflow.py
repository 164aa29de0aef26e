"""Interprocedural unit/float dataflow and the VR100 pass.

The per-function VR003 check sees direct taint only — a float literal or
a true division *in the flagged expression itself*.  What it cannot see
is provenance: a local bound to a division three lines earlier, or a
helper in another module that returns wall seconds, assigned at the call
site to a ``*_ns`` name.  This pass tracks both.

**Lattice.**  Every expression gets a :class:`UnitInfo`: a coarse unit
tag (``ns`` / ``bytes`` / ``bps`` / ``seconds`` / plain ``int`` /
``float`` / ``unknown``) plus a one-line provenance string used in
diagnostics.  Floatness is what VR100 polices; the unit tags sharpen
messages and seed inference from parameter names (``*_ns`` → ns-int,
``*_s`` → seconds-float, ``*_bps`` / ``*_bytes`` → integer rates/sizes).

**Summaries.**  Each project function gets a summary: parameter units
(from names and annotations) and an inferred return unit (join over its
``return`` expressions, evaluated under a per-function abstract
environment).  Summaries propagate around the call graph to a fixpoint
(bounded iterations; the lattice is tiny so convergence is fast).

**VR100** then flags, with stable summaries in hand:

- assignment of a float-valued expression to a ``*_ns`` target whose
  taint is *indirect* (through a local or a call) — direct taint stays
  VR003's report;
- passing a float-valued argument (positional or keyword) to a ``*_ns``
  parameter of a project function;
- a ``return`` of a float-valued expression from a function whose own
  name is ``*_ns``-suffixed (its callers will treat the result as
  integer nanoseconds).

**VR150** is VR100's stricter sibling for *integer-only functions*:
those whose own or enclosing-class name contains one of
:data:`INTEGER_ONLY_MARKERS` — the hybrid-fidelity analytic
completion-time path (``analytic_round_ns``, ``_start_analytic_round``,
...) and the PFC control path (pause/resume scheduling, XOFF/XON and
headroom thresholds).  Inside them *every* float-valued assignment,
augmented true division, and float-valued ``return`` is flagged, not
just the ones feeding a ``*_ns`` name: each intermediate there ends up
in an event timestamp or is compared against an integer byte counter,
and float rounding breaks bit-for-bit digest stability.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    Project,
    walk_shallow,
)
from repro.analysis.lint import Violation, _float_taint

#: Coarse unit tags.
NS = "ns"
BYTES = "bytes"
BPS = "bps"
SECONDS = "seconds"
INT = "int"
FLOAT = "float"
UNKNOWN = "unknown"

_FLOATISH = frozenset({SECONDS, FLOAT})
_INTISH = frozenset({NS, BYTES, BPS, INT})

#: Name-suffix → unit. Longest suffix wins (``_bps`` before ``_s``).
_SUFFIX_UNITS: Tuple[Tuple[str, str], ...] = (
    ("_ns", NS),
    ("_bytes", BYTES),
    ("_bps", BPS),
    ("_seconds", SECONDS),
    ("_secs", SECONDS),
    ("_sec", SECONDS),
    ("_s", SECONDS),
)

_ROUNDING_FUNCS = frozenset({"round", "int", "floor", "ceil", "trunc"})


def suffix_unit(name: Optional[str]) -> str:
    if not name:
        return UNKNOWN
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix) and name != suffix:
            return unit
    return UNKNOWN


@dataclass(frozen=True)
class UnitInfo:
    """A lattice value: unit tag plus provenance for diagnostics."""

    unit: str
    why: str = ""

    @property
    def floatish(self) -> bool:
        return self.unit in _FLOATISH

    @property
    def intish(self) -> bool:
        return self.unit in _INTISH


_UNKNOWN = UnitInfo(UNKNOWN)


def _join(a: UnitInfo, b: UnitInfo) -> UnitInfo:
    """Lattice join: floatness dominates, agreeing tags survive."""
    if a.unit == b.unit:
        return a
    if a.floatish:
        return a
    if b.floatish:
        return b
    if a.unit == UNKNOWN:
        return b
    if b.unit == UNKNOWN:
        return a
    return UnitInfo(INT, a.why or b.why)


@dataclass
class FunctionSummary:
    """Parameter and return units for one project function."""

    qualname: str
    params: Dict[str, UnitInfo]
    returns: UnitInfo = _UNKNOWN


class _Inferencer:
    """Single-function abstract interpreter over the unit lattice."""

    def __init__(self, func: FunctionInfo, project: Project,
                 graph: CallGraph,
                 summaries: Dict[str, FunctionSummary]) -> None:
        self.func = func
        self.project = project
        self.graph = graph
        self.summaries = summaries
        self.env: Dict[str, UnitInfo] = {}
        node = func.node
        args = getattr(node, "args", None)
        if args is not None:
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                unit = suffix_unit(arg.arg)
                if isinstance(arg.annotation, ast.Name) \
                        and arg.annotation.id == "float" \
                        and unit not in (NS, BYTES, BPS):
                    unit = FLOAT if unit == UNKNOWN else unit
                if unit != UNKNOWN:
                    self.env[arg.arg] = UnitInfo(
                        unit, f"parameter '{arg.arg}'")

    # -- expression inference --------------------------------------------------

    def infer(self, node: ast.expr) -> UnitInfo:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return UnitInfo(INT, "bool literal")
            if isinstance(node.value, int):
                return UnitInfo(INT, "int literal")
            if isinstance(node.value, float):
                return UnitInfo(FLOAT, f"float literal {node.value!r}")
            return _UNKNOWN
        if isinstance(node, ast.Name):
            known = self.env.get(node.id)
            if known is not None:
                return known
            unit = suffix_unit(node.id)
            if unit != UNKNOWN:
                return UnitInfo(unit, f"name '{node.id}'")
            return _UNKNOWN
        if isinstance(node, ast.Attribute):
            unit = suffix_unit(node.attr)
            if unit != UNKNOWN:
                return UnitInfo(unit, f"attribute '.{node.attr}'")
            return _UNKNOWN
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return UnitInfo(FLOAT, "true division")
            if isinstance(node.op, ast.FloorDiv):
                return UnitInfo(INT, "floor division")
            left = self.infer(node.left)
            right = self.infer(node.right)
            if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Mod,
                                    ast.Pow)):
                return _join(left, right)
            return _UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.IfExp):
            return _join(self.infer(node.body), self.infer(node.orelse))
        if isinstance(node, ast.BoolOp):  # ``configured or default``
            result = _UNKNOWN
            for value in node.values:
                result = _join(result, self.infer(value))
            return result
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            return _UNKNOWN
        if isinstance(node, ast.NamedExpr):
            value = self.infer(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = value
            return value
        return _UNKNOWN

    def _infer_call(self, node: ast.Call) -> UnitInfo:
        func = node.func
        name = func.id if isinstance(func, ast.Name) \
            else func.attr if isinstance(func, ast.Attribute) else None
        if name in _ROUNDING_FUNCS:
            if node.args:
                inner = self.infer(node.args[0])
                if inner.unit in (NS, BYTES, BPS):
                    return UnitInfo(inner.unit, f"{name}() of {inner.why}")
            return UnitInfo(INT, f"{name}() result")
        if name == "float":
            return UnitInfo(FLOAT, "float() conversion")
        # Project callee: use summary return units (join over candidates).
        callees = self._call_targets(node)
        result: Optional[UnitInfo] = None
        for callee in callees:
            summary = self.summaries.get(callee)
            if summary is None:
                continue
            returned = summary.returns
            if returned.unit == UNKNOWN:
                continue
            tagged = UnitInfo(
                returned.unit,
                f"returned by {self._describe(callee)}")
            result = tagged if result is None else _join(result, tagged)
        if result is not None:
            return result
        unit = suffix_unit(name)
        if unit != UNKNOWN:
            return UnitInfo(unit, f"call '{name}()'")
        return _UNKNOWN

    def _call_targets(self, node: ast.Call) -> List[str]:
        return self.graph._resolve_call(self.func, node)

    def _describe(self, qualname: str) -> str:
        func = self.project.functions.get(qualname)
        if func is None:
            return qualname
        name = f"{func.cls}.{func.name}" if func.cls else func.name
        return f"{name}() ({func.path}:{func.lineno})"

    # -- statement walk --------------------------------------------------------

    def run(self) -> UnitInfo:
        """Walk the body once; return the joined return unit."""
        returned = _UNKNOWN
        for stmt in getattr(self.func.node, "body", []):
            returned = _join(returned, self._exec(stmt))
        return returned

    def _exec(self, stmt: ast.stmt) -> UnitInfo:
        """Execute one statement abstractly; returns its return-unit."""
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return _UNKNOWN
            return self.infer(stmt.value)
        if isinstance(stmt, ast.Assign):
            value = self.infer(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env[target.id] = value
            return _UNKNOWN
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = self.infer(stmt.value)
            return _UNKNOWN
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id, _UNKNOWN)
                if isinstance(stmt.op, ast.Div):
                    self.env[stmt.target.id] = UnitInfo(
                        FLOAT, "augmented true division")
                else:
                    self.env[stmt.target.id] = _join(
                        current, self.infer(stmt.value))
            return _UNKNOWN
        if isinstance(stmt, (ast.If, ast.For, ast.While, ast.With,
                             ast.Try)):
            returned = _UNKNOWN
            for body in self._stmt_bodies(stmt):
                for inner in body:
                    returned = _join(returned, self._exec(inner))
            return returned
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return _UNKNOWN  # nested defs are summarized separately
        return _UNKNOWN

    @staticmethod
    def _stmt_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
        bodies = [getattr(stmt, "body", [])]
        for attr in ("orelse", "finalbody"):
            extra = getattr(stmt, attr, None)
            if extra:
                bodies.append(extra)
        for handler in getattr(stmt, "handlers", []) or []:
            bodies.append(handler.body)
        return bodies


def build_summaries(project: Project, graph: CallGraph,
                    max_rounds: int = 6) -> Dict[str, FunctionSummary]:
    """Fixpoint the per-function summaries over the call graph."""
    summaries: Dict[str, FunctionSummary] = {}
    for qualname, func in project.functions.items():
        params: Dict[str, UnitInfo] = {}
        for param in func.params:
            unit = suffix_unit(param)
            if unit != UNKNOWN:
                params[param] = UnitInfo(unit, f"parameter '{param}'")
        summaries[qualname] = FunctionSummary(qualname, params)
    for _ in range(max_rounds):
        changed = False
        for qualname, func in project.functions.items():
            inferencer = _Inferencer(func, project, graph, summaries)
            returned = inferencer.run()
            if returned.unit != summaries[qualname].returns.unit:
                summaries[qualname].returns = returned
                changed = True
        if not changed:
            break
    return summaries


# -- VR100 ---------------------------------------------------------------------


def check_vr100(project: Project, graph: CallGraph,
                summaries: Dict[str, FunctionSummary]) -> List[Violation]:
    """Flag float/seconds values crossing into ``*_ns`` slots."""
    violations: List[Violation] = []
    for qualname, func in project.functions.items():
        inferencer = _Inferencer(func, project, graph, summaries)
        _walk_for_vr100(func, inferencer, violations)
    return violations


def _walk_for_vr100(func: FunctionInfo, inf: _Inferencer,
                    out: List[Violation]) -> None:
    own_ns = suffix_unit(func.name) == NS
    for stmt in getattr(func.node, "body", []):
        _exec_for_vr100(stmt, func, inf, out, own_ns)


_COMPOUND = (ast.If, ast.For, ast.While, ast.With, ast.Try)


def _exec_for_vr100(stmt: ast.stmt, func: FunctionInfo, inf: _Inferencer,
                    out: List[Violation], own_ns: bool) -> None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return
    if isinstance(stmt, _COMPOUND):
        # Header expressions (test / iter / context managers) carry
        # calls too; check them, then recurse into the bodies with the
        # shared environment (assignments in earlier branches update the
        # env before later uses — conservative, not path-sensitive).
        for header in _header_exprs(stmt):
            _check_call_args(header, func, inf, out)
        for body in _Inferencer._stmt_bodies(stmt):
            for inner in body:
                _exec_for_vr100(inner, func, inf, out, own_ns)
        return
    if isinstance(stmt, ast.Return) and stmt.value is not None and own_ns:
        info = inf.infer(stmt.value)
        if info.floatish:
            out.append(Violation(
                func.path, stmt.lineno, stmt.col_offset + 1, "VR100",
                f"'{func.name}' returns a float-valued expression "
                f"({info.why}); *_ns functions must return integer "
                f"nanoseconds"))
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        value = stmt.value
        if value is not None:
            info = inf.infer(value)
            for target in targets:
                name = target.id if isinstance(target, ast.Name) \
                    else target.attr if isinstance(target, ast.Attribute) \
                    else None
                if name and suffix_unit(name) == NS and info.floatish \
                        and _float_taint(value) is None:
                    # Direct taint is VR003's report; indirect is ours.
                    out.append(Violation(
                        func.path, stmt.lineno, stmt.col_offset + 1,
                        "VR100",
                        f"float value flows into '{name}': {info.why}"))
    _check_call_args(stmt, func, inf, out)
    inf._exec(stmt)  # update the abstract environment


def _header_exprs(stmt: ast.stmt) -> List[ast.expr]:
    exprs: List[ast.expr] = []
    for attr in ("test", "iter"):
        value = getattr(stmt, attr, None)
        if value is not None:
            exprs.append(value)
    for item in getattr(stmt, "items", []) or []:
        exprs.append(item.context_expr)
    return exprs


def _check_call_args(root: ast.AST, func: FunctionInfo, inf: _Inferencer,
                     out: List[Violation]) -> None:
    """Flag float-valued arguments bound to ``*_ns`` parameters."""
    for node in chain([root], walk_shallow(root)):
        if not isinstance(node, ast.Call):
            continue
        for callee in inf._call_targets(node):
            summary = inf.summaries.get(callee)
            target_func = inf.project.functions.get(callee)
            if summary is None or target_func is None:
                continue
            params = list(target_func.params)
            offset = 1 if target_func.cls is not None \
                and params[:1] == ["self"] else 0
            bindings: List[Tuple[str, ast.expr]] = []
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                param_index = index + offset
                if param_index < len(params):
                    bindings.append((params[param_index], arg))
            for keyword in node.keywords:
                if keyword.arg is not None:
                    bindings.append((keyword.arg, keyword.value))
            for param, arg in bindings:
                if suffix_unit(param) != NS:
                    continue
                info = inf.infer(arg)
                if info.floatish and _float_taint(arg) is None:
                    out.append(Violation(
                        func.path, arg.lineno, arg.col_offset + 1,
                        "VR100",
                        f"float value passed to parameter '{param}' of "
                        f"{inf._describe(callee)}: {info.why}"))


# -- VR150: no float arithmetic inside integer-only functions ------------------

#: A function is integer-only when its name, or its enclosing class's,
#: contains one of these: the analytic completion-time path and the PFC
#: control path (every ``PfcGate`` / ``PfcController`` method).
INTEGER_ONLY_MARKERS = ("analytic", "pause", "pfc", "xoff", "xon",
                        "threshold")


def check_vr150(project: Project, graph: CallGraph,
                summaries: Dict[str, FunctionSummary]) -> List[Violation]:
    """Flag every float-valued statement inside integer-only functions."""
    violations: List[Violation] = []
    for func in project.functions.values():
        scope = f"{func.name} {func.cls or ''}".lower()
        if not any(marker in scope for marker in INTEGER_ONLY_MARKERS):
            continue
        inferencer = _Inferencer(func, project, graph, summaries)
        for stmt in getattr(func.node, "body", []):
            _exec_all_float(stmt, func, inferencer, violations)
    return violations


def _exec_all_float(stmt: ast.stmt, func: FunctionInfo, inf: _Inferencer,
                    out: List[Violation]) -> None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return
    if isinstance(stmt, _COMPOUND):
        for body in _Inferencer._stmt_bodies(stmt):
            for inner in body:
                _exec_all_float(inner, func, inf, out)
        return
    what: Optional[str] = None
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        info = inf.infer(stmt.value)
        if info.floatish:
            what = f"returns a float ({info.why})"
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
            and stmt.value is not None:
        info = inf.infer(stmt.value)
        if info.floatish:
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            name = next(
                (target.id if isinstance(target, ast.Name) else target.attr
                 for target in targets
                 if isinstance(target, (ast.Name, ast.Attribute))),
                "<target>")
            what = f"'{name}' gets a float ({info.why})"
    elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Div):
        what = "augmented true division (use //=)"
    if what is not None:
        out.append(Violation(
            func.path, stmt.lineno, stmt.col_offset + 1, "VR150",
            f"float arithmetic in integer-only function '{func.name}': "
            f"{what}; analytic-path and PFC results feed the integer-ns "
            f"calendar and integer byte counters"))
    inf._exec(stmt)  # update the abstract environment
