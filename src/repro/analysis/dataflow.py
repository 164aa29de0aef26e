"""Per-function float provenance: the VR100 and VR150 rules.

VR003 sees direct taint only, a float literal or a true division in the
flagged expression itself.  :class:`_Inferencer` follows provenance
within one function: locals carry the floatness of what was assigned
to them, and names, parameters and calls are floats by their seconds
suffix.  :func:`check_functions` walks each function's statements once
with one inferencer and reports

- **VR100** — a float reaching a ``*_ns`` target through a local or a
  call (direct taint stays VR003's report), or a float ``return`` from
  a ``*_ns``-named function;
- **VR150** — inside an *integer-only* function, one whose own or
  enclosing-class name contains an :data:`INTEGER_ONLY_MARKERS` entry
  (the analytic completion-time and PFC control paths), every
  float-valued assignment, ``/=`` and ``return``, in place of VR100:
  each intermediate there ends in an event time or is compared with an
  integer byte counter, and float rounding breaks digest stability.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.analysis.lint import (
    _ROUNDING_FUNCS,
    UNIT_SUFFIXES,
    Violation,
    _float_taint,
    _is_float_annotation,
    _terminal_name,
)

_FunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Why an expression is a float, or ``None`` when it is not one.
Why = Optional[str]

#: Name suffixes of seconds, floats by convention.
_SECONDS = ("_seconds", "_secs", "_sec", "_s")


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
            if _suffixed(arg.arg, _SECONDS) or (
                    _is_float_annotation(arg.annotation)
                    and not _suffixed(arg.arg, UNIT_SUFFIXES)):
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
            name = _terminal_name(node.func)
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


# -- VR100 and VR150 ----------------------------------------------------------

#: A function is integer-only when its name, or its enclosing class's,
#: contains one of these: the analytic completion-time path and the PFC
#: control path (every ``PfcGate`` / ``PfcController`` method).
INTEGER_ONLY_MARKERS = ("analytic", "pause", "pfc", "xoff", "xon",
                        "threshold")


def check_functions(tree: ast.Module, path: str) -> List[Violation]:
    """VR100 and VR150 findings: one inferencer and one walk per function.

    Inside an integer-only function VR150 is the one report: it flags
    every statement VR100 would, and more.
    """
    out: List[Violation] = []

    def flag(stmt: ast.stmt, code: str, message: str) -> None:
        out.append(Violation(path, stmt.lineno, stmt.col_offset + 1, code,
                             message))

    for func, cls in _functions(tree):
        scope = f"{func.name} {cls or ''}".lower()
        strict = any(marker in scope for marker in INTEGER_ONLY_MARKERS)
        own_ns = _is_ns(func.name)
        inf = _Inferencer(func)
        for stmt in _statements(func.body, inf):
            what: Optional[str] = None
            targets, value = _assignment(stmt)
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                why = inf.infer(stmt.value) if own_ns or strict else None
                if why and not strict:
                    flag(stmt, "VR100",
                         f"'{func.name}' returns a float-valued expression "
                         f"({why}); *_ns functions must return integer "
                         f"nanoseconds")
                elif why:
                    what = f"returns a float ({why})"
            elif value is not None:
                # Direct taint is VR003's report; VR100's is indirect.
                indirect = _float_taint(value) is None
                why = inf.infer(value) if indirect or strict else None
                names = [_terminal_name(target) for target in targets]
                if why and not strict:
                    for name in filter(_is_ns, names):
                        flag(stmt, "VR100",
                             f"float value flows into '{name}': {why}")
                elif why:
                    name = next(filter(None, names), "<target>")
                    what = f"'{name}' gets a float ({why})"
            elif strict and isinstance(stmt, ast.AugAssign) \
                    and isinstance(stmt.op, ast.Div):
                what = "augmented true division (use //=)"
            if what is not None:
                flag(stmt, "VR150",
                     f"float arithmetic in integer-only function "
                     f"'{func.name}': {what}; analytic-path and PFC results "
                     f"feed the integer-ns calendar and integer byte "
                     f"counters")
    return out
