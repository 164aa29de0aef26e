"""Per-function float provenance: the VR100 and VR150 rules.

The VR003 check sees direct taint only — a float literal or a true
division *in the flagged expression itself*.  What it cannot see is
provenance: a local bound to a division three lines earlier, or a
``*_s``-named helper whose result is assigned to a ``*_ns`` name.  This
pass tracks both, one function of one file at a time.

**Floatness.**  Every expression is either a float, carrying a one-line
provenance string for the diagnostic, or not (``None``).  Names seed
it by suffix: ``*_s`` / ``*_sec`` / ``*_secs`` / ``*_seconds`` are
seconds, floats by convention; ``*_ns`` / ``*_bytes`` / ``*_bps`` are
integers, even as a parameter annotated ``float`` (VR003 reports the
annotation).  Any other parameter annotated ``float`` is a float.

**Inference.**  :class:`_Inferencer` interprets one function body
abstractly: locals carry the floatness of what was assigned to them,
and literals, ``/`` vs ``//``, ``or``/``and``, conditionals and
rounding calls (``int``/``round``/``floor``/``ceil``/``trunc``) are
understood.  A call is never resolved: it is a float when its name has
a seconds suffix (``propagation_delay_s(...)``) or it is ``float()``.

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
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.analysis.lint import (
    _ROUNDING_FUNCS,
    Violation,
    _call_name,
    _float_taint,
    _terminal_name,
)

_FunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Why an expression is a float, or ``None`` when it is not one.
Why = Optional[str]

#: Name suffixes of seconds (floats) and of integer units.
_SECONDS = ("_seconds", "_secs", "_sec", "_s")
_INTEGER_UNITS = ("_ns", "_bytes", "_bps")


def _suffixed(name: Optional[str], suffixes: Tuple[str, ...]) -> bool:
    """Whether ``name`` ends in one of ``suffixes`` (a bare suffix is
    no name)."""
    return bool(name) and any(name.endswith(suffix) and name != suffix
                              for suffix in suffixes)


def _is_ns(name: Optional[str]) -> bool:
    return _suffixed(name, ("_ns",))


class _Inferencer:
    """Single-function abstract interpreter over floatness."""

    def __init__(self, func: _FunctionDef) -> None:
        self.env: Dict[str, Why] = {}
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            annotated = isinstance(arg.annotation, ast.Name) \
                and arg.annotation.id == "float"
            if _suffixed(arg.arg, _SECONDS) or (
                    annotated and not _suffixed(arg.arg, _INTEGER_UNITS)):
                self.env[arg.arg] = f"parameter '{arg.arg}'"

    # -- expression inference --------------------------------------------------

    def infer(self, node: ast.expr) -> Why:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, float):
                return f"float literal {node.value!r}"
            return None
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return f"name '{node.id}'" \
                if _suffixed(node.id, _SECONDS) else None
        if isinstance(node, ast.Attribute):
            return f"attribute '.{node.attr}'" \
                if _suffixed(node.attr, _SECONDS) else None
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return "true division"
            if isinstance(node.op, ast.FloorDiv):
                return None
            left = self.infer(node.left)
            right = self.infer(node.right)
            if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Mod,
                                    ast.Pow)):
                return left or right
            return None
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.IfExp):
            body = self.infer(node.body)
            orelse = self.infer(node.orelse)
            return body or orelse
        if isinstance(node, ast.BoolOp):  # ``configured or default``
            whys = [self.infer(value) for value in node.values]
            return next(filter(None, whys), None)
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _ROUNDING_FUNCS:
                return None
            if name == "float":
                return "float() conversion"
            return f"call '{name}()'" if _suffixed(name, _SECONDS) else None
        if isinstance(node, ast.NamedExpr):
            value = self.infer(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = value
            return value
        return None

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
                self.env[stmt.target.id] = "augmented true division"
            else:
                value = self.infer(stmt.value)
                self.env[stmt.target.id] = \
                    self.env.get(stmt.target.id) or value


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
        own_ns = _is_ns(func.name)
        for stmt in _statements(func.body, inf):
            if isinstance(stmt, ast.Return) and stmt.value is not None \
                    and own_ns:
                why = inf.infer(stmt.value)
                if why:
                    out.append(Violation(
                        path, stmt.lineno, stmt.col_offset + 1, "VR100",
                        f"'{func.name}' returns a float-valued expression "
                        f"({why}); *_ns functions must return integer "
                        f"nanoseconds"))
            targets, value = _assignment(stmt)
            if value is None or _float_taint(value) is not None:
                continue  # direct taint is VR003's report; indirect is ours
            why = inf.infer(value)
            for target in targets:
                name = _terminal_name(target)
                if why and _is_ns(name):
                    out.append(Violation(
                        path, stmt.lineno, stmt.col_offset + 1, "VR100",
                        f"float value flows into '{name}': {why}"))
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
                why = inf.infer(stmt.value)
                if why:
                    what = f"returns a float ({why})"
            elif value is not None:
                why = inf.infer(value)
                if why:
                    name = next(filter(None, map(_terminal_name, targets)),
                                "<target>")
                    what = f"'{name}' gets a float ({why})"
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
