"""Per-function unit/float provenance: the VR100 and VR150 rules.

The VR003 check sees direct taint only — a float literal or a true
division *in the flagged expression itself*.  What it cannot see is
provenance: a local bound to a division three lines earlier, or a
``*_s``-named helper whose result is assigned to a ``*_ns`` name.  This
pass tracks both, one function of one file at a time.

**Lattice.**  Every expression gets a :class:`UnitInfo`: a coarse unit
tag (``ns`` / ``bytes`` / ``bps`` / ``seconds`` / plain ``int`` /
``float`` / ``unknown``) plus a one-line provenance string used in
diagnostics.  Floatness is what the rules police; the unit tags sharpen
messages and seed inference from names (``*_ns`` → ns-int, ``*_s`` →
seconds-float, ``*_bps`` / ``*_bytes`` → integer rates/sizes).

**Inference.**  :class:`_Inferencer` interprets one function body
abstractly: parameters are seeded from their names and ``float``
annotations, locals carry the unit of what was assigned to them,
literals, ``/`` vs ``//``, ``or``/``and``, conditionals and rounding
calls (``int``/``round``/``floor``/``ceil``/``trunc``) are understood.
A call is never resolved: its unit is its name's suffix
(``propagation_delay_s(...)`` is seconds), else unknown.

**VR100** flags:

- assignment of a float-valued expression to a ``*_ns`` target whose
  taint is *indirect* (through a local or a call) — direct taint stays
  VR003's report;
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
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.analysis.lint import (
    _ROUNDING_FUNCS,
    Violation,
    _call_name,
    _float_taint,
    _terminal_name,
)

_FunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Coarse unit tags.
NS = "ns"
BYTES = "bytes"
BPS = "bps"
SECONDS = "seconds"
INT = "int"
FLOAT = "float"
UNKNOWN = "unknown"

_FLOATISH = frozenset({SECONDS, FLOAT})

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


class _Inferencer:
    """Single-function abstract interpreter over the unit lattice."""

    def __init__(self, func: _FunctionDef) -> None:
        self.env: Dict[str, UnitInfo] = {}
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            unit = suffix_unit(arg.arg)
            if unit == UNKNOWN and isinstance(arg.annotation, ast.Name) \
                    and arg.annotation.id == "float":
                unit = FLOAT
            if unit != UNKNOWN:
                self.env[arg.arg] = UnitInfo(unit, f"parameter '{arg.arg}'")

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
        name = _call_name(node)
        if name in _ROUNDING_FUNCS:
            if node.args:
                inner = self.infer(node.args[0])
                if inner.unit in (NS, BYTES, BPS):
                    return UnitInfo(inner.unit, f"{name}() of {inner.why}")
            return UnitInfo(INT, f"{name}() result")
        if name == "float":
            return UnitInfo(FLOAT, "float() conversion")
        unit = suffix_unit(name)
        if unit != UNKNOWN:
            return UnitInfo(unit, f"call '{name}()'")
        return _UNKNOWN

    # -- statement walk --------------------------------------------------------

    def bind(self, stmt: ast.stmt) -> None:
        """Fold one simple statement's bindings into the environment."""
        if isinstance(stmt, ast.Assign):
            value = self.infer(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env[target.id] = value
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = self.infer(stmt.value)
        elif isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name):
            if isinstance(stmt.op, ast.Div):
                self.env[stmt.target.id] = UnitInfo(
                    FLOAT, "augmented true division")
            else:
                self.env[stmt.target.id] = _join(
                    self.env.get(stmt.target.id, _UNKNOWN),
                    self.infer(stmt.value))


_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTION_DEFS, ast.ClassDef)
_COMPOUND = (ast.If, ast.For, ast.While, ast.With, ast.Try)


def _functions(node: ast.AST, cls: Optional[str] = None
               ) -> Iterator[Tuple[_FunctionDef, Optional[str]]]:
    """Every ``def`` under ``node`` with the name of the class it is a
    method of (``None`` for plain and nested functions)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCTION_DEFS):
            yield child, cls
            yield from _functions(child)
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, child.name)
        else:
            yield from _functions(child, cls)


def _statements(body: List[ast.stmt],
                inf: _Inferencer) -> Iterator[ast.stmt]:
    """Yield ``body``'s simple statements in source order, folding each
    into ``inf``'s environment once the consumer has looked at it.

    Branches share one environment (an assignment in an earlier branch
    is visible to later uses — conservative, not path-sensitive); nested
    definitions are their own functions.
    """
    for stmt in body:
        if isinstance(stmt, _DEFS):
            continue
        if isinstance(stmt, _COMPOUND):
            for attr in ("body", "orelse", "finalbody"):
                yield from _statements(getattr(stmt, attr, []), inf)
            for handler in getattr(stmt, "handlers", []):
                yield from _statements(handler.body, inf)
        else:
            yield stmt
            inf.bind(stmt)


def _assignment(stmt: ast.stmt) -> Tuple[List[ast.expr], Optional[ast.expr]]:
    """``(targets, value)`` of a plain or annotated assignment."""
    if isinstance(stmt, ast.Assign):
        return stmt.targets, stmt.value
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.target], stmt.value
    return [], None


# -- VR100 ---------------------------------------------------------------------


def check_vr100(tree: ast.Module, path: str) -> List[Violation]:
    """Flag float/seconds values flowing into ``*_ns`` slots."""
    out: List[Violation] = []
    for func, _cls in _functions(tree):
        inf = _Inferencer(func)
        own_ns = suffix_unit(func.name) == NS
        for stmt in _statements(func.body, inf):
            if isinstance(stmt, ast.Return) and stmt.value is not None \
                    and own_ns:
                info = inf.infer(stmt.value)
                if info.floatish:
                    out.append(Violation(
                        path, stmt.lineno, stmt.col_offset + 1, "VR100",
                        f"'{func.name}' returns a float-valued expression "
                        f"({info.why}); *_ns functions must return integer "
                        f"nanoseconds"))
            targets, value = _assignment(stmt)
            if value is None or _float_taint(value) is not None:
                continue  # direct taint is VR003's report; indirect is ours
            info = inf.infer(value)
            for target in targets:
                name = _terminal_name(target)
                if info.floatish and suffix_unit(name) == NS:
                    out.append(Violation(
                        path, stmt.lineno, stmt.col_offset + 1, "VR100",
                        f"float value flows into '{name}': {info.why}"))
    return out


# -- VR150: no float arithmetic inside integer-only functions ------------------

#: A function is integer-only when its name, or its enclosing class's,
#: contains one of these: the analytic completion-time path and the PFC
#: control path (every ``PfcGate`` / ``PfcController`` method).
INTEGER_ONLY_MARKERS = ("analytic", "pause", "pfc", "xoff", "xon",
                        "threshold")


def check_vr150(tree: ast.Module, path: str) -> List[Violation]:
    """Flag every float-valued statement inside integer-only functions."""
    out: List[Violation] = []
    for func, cls in _functions(tree):
        scope = f"{func.name} {cls or ''}".lower()
        if not any(marker in scope for marker in INTEGER_ONLY_MARKERS):
            continue
        inf = _Inferencer(func)
        for stmt in _statements(func.body, inf):
            what: Optional[str] = None
            targets, value = _assignment(stmt)
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                info = inf.infer(stmt.value)
                if info.floatish:
                    what = f"returns a float ({info.why})"
            elif value is not None:
                info = inf.infer(value)
                if info.floatish:
                    name = next(filter(None, map(_terminal_name, targets)),
                                "<target>")
                    what = f"'{name}' gets a float ({info.why})"
            elif isinstance(stmt, ast.AugAssign) \
                    and isinstance(stmt.op, ast.Div):
                what = "augmented true division (use //=)"
            if what is not None:
                out.append(Violation(
                    path, stmt.lineno, stmt.col_offset + 1, "VR150",
                    f"float arithmetic in integer-only function "
                    f"'{func.name}': {what}; analytic-path and PFC results "
                    f"feed the integer-ns calendar and integer byte "
                    f"counters"))
    return out
