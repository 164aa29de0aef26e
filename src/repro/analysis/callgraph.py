"""Project-wide symbol table and call graph for the VR1xx passes.

The per-file rules (VR001–VR004, :mod:`repro.analysis.lint`) see one
function at a time; the determinism properties the VR1xx family guards
— float time leaking *across* calls, RNG draws reached transitively from
event handlers, state escaping the run digest — are whole-program
properties.  This module builds the shared substrate those passes run
on:

- :class:`Project` — every module parsed once, with a symbol table of
  functions (by qualified name), classes (with base-class names and
  methods), imports, and module-level constant bindings;
- :class:`CallGraph` — over-approximate call edges resolved by name:
  direct calls bind to module or imported symbols, ``self.m()`` binds
  through the class hierarchy (ancestors *and* descendants, so calls to
  abstract methods reach every override), and unqualified attribute
  calls fall back to every project method of that name (CHA-lite),
  filtered through a builtin-method stoplist;
- **entry points** — the functions simulated time starts from: every
  method of a forwarding-policy class and every callback handed to
  ``schedule`` / ``schedule_at`` / ``schedule_fast``.

Qualified names have the form ``"<posix path>::Class.method"`` or
``"<posix path>::function"``; nested functions append ``.<name>`` to
their parent and carry an implicit edge from it (defining a closure is
treated as potentially calling it).
"""

from __future__ import annotations

import ast
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Attribute-call names never resolved CHA-style: builtin container /
#: string methods whose names would otherwise alias project methods.
BUILTIN_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "copy", "add", "discard", "update", "get", "items",
    "keys", "values", "setdefault", "popitem", "popleft", "appendleft",
    "join", "split", "rsplit", "strip", "lstrip", "rstrip", "format",
    "encode", "decode", "startswith", "endswith", "replace", "lower",
    "upper", "count", "index", "find", "rfind", "read", "write",
    "readline", "readlines", "close", "flush", "open", "items",
    "most_common", "total", "hexdigest", "digest", "dumps", "loads",
    "dump", "load", "group", "groups", "match", "search", "sub",
    "fullmatch", "finditer", "put", "qsize", "task_done", "acquire",
    "release", "wait", "notify", "set", "is_set", "submit", "shutdown",
    "result", "done", "cancel", "exists", "is_file", "is_dir",
    "as_posix", "resolve", "rglob", "glob", "mkdir", "unlink",
    "read_text", "write_text",
})

#: Scheduling entry points: a function object passed as the callback
#: argument of these methods becomes an event handler.
SCHEDULE_METHODS = frozenset({"schedule", "schedule_at", "schedule_fast"})

#: Class-name markers for forwarding policies (methods are entry points).
POLICY_BASES = frozenset({"ForwardingPolicy"})


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    path: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    lineno: int
    cls: Optional[str] = None       # enclosing class name, if a method
    parent: Optional[str] = None    # enclosing function qualname, if nested
    params: Tuple[str, ...] = ()

    @property
    def is_nested(self) -> bool:
        return self.parent is not None


@dataclass
class ClassInfo:
    """One class definition: base names and its methods."""

    name: str
    path: str
    lineno: int
    bases: Tuple[str, ...] = ()
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass
class ModuleInfo:
    """One parsed module and its top-level symbol table."""

    path: str
    tree: ast.Module
    functions: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: import alias -> dotted target ("from x import f" => {"f": "x.f"})
    imports: Dict[str, str] = field(default_factory=dict)
    #: Module-level names bound to container/constant literals.
    module_bindings: Set[str] = field(default_factory=set)
    #: Declared RNG stream names (the RNG_STREAMS module constant).
    rng_streams: Optional[Tuple[str, ...]] = None


def walk_shallow(root: ast.AST):
    """Yield ``root``'s descendants without entering nested definitions.

    Like :func:`ast.walk`, but subtrees of nested ``def`` / ``class`` /
    ``lambda`` nodes are not descended into — their bodies belong to the
    separately-indexed nested symbol, not to ``root``.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child
            if not isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.Lambda, ast.ClassDef)):
                stack.append(child)


def _module_dotted(path: str) -> str:
    """Best-effort dotted module name from a file path."""
    parts = list(path.replace("\\", "/").split("/"))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    return ".".join(part for part in parts if part)


class _ModuleIndexer(ast.NodeVisitor):
    """Populate a :class:`ModuleInfo` and collect its functions."""

    def __init__(self, info: ModuleInfo,
                 functions: Dict[str, FunctionInfo]) -> None:
        self.info = info
        self.functions = functions
        self._class_stack: List[ClassInfo] = []
        self._func_stack: List[FunctionInfo] = []

    # -- imports ---------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.info.imports[name] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        for alias in node.names:
            name = alias.asname or alias.name
            self.info.imports[name] = f"{node.module}.{alias.name}"

    # -- definitions -----------------------------------------------------------

    def _qualify(self, name: str) -> str:
        if self._func_stack:
            return f"{self._func_stack[-1].qualname}.{name}"
        if self._class_stack:
            return f"{self.info.path}::{self._class_stack[-1].name}.{name}"
        return f"{self.info.path}::{name}"

    def _visit_func(self, node) -> None:
        qualname = self._qualify(node.name)
        args = node.args
        params = tuple(arg.arg for arg in
                       (*args.posonlyargs, *args.args, *args.kwonlyargs))
        info = FunctionInfo(
            qualname=qualname, path=self.info.path, name=node.name,
            node=node, lineno=node.lineno,
            cls=self._class_stack[-1].name
            if self._class_stack and not self._func_stack else None,
            parent=self._func_stack[-1].qualname
            if self._func_stack else None,
            params=params)
        self.functions[qualname] = info
        if info.cls:
            self._class_stack[-1].methods[node.name] = qualname
        elif not info.is_nested:
            self.info.functions[node.name] = qualname
        self._func_stack.append(info)
        for stmt in node.body:
            self.visit(stmt)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._func_stack or self._class_stack:
            # Nested classes: index methods flat under the inner name.
            cls = ClassInfo(node.name, self.info.path, node.lineno)
        else:
            cls = ClassInfo(
                node.name, self.info.path, node.lineno,
                bases=tuple(base.id if isinstance(base, ast.Name)
                            else base.attr if isinstance(base, ast.Attribute)
                            else "?" for base in node.bases))
            self.info.classes[node.name] = cls
        self._class_stack.append(cls)
        for stmt in node.body:
            self.visit(stmt)
        self._class_stack.pop()

    # -- module-level bindings -------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._func_stack and not self._class_stack:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.info.module_bindings.add(target.id)
                    if target.id == "RNG_STREAMS":
                        self._record_streams(node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._func_stack and not self._class_stack \
                and isinstance(node.target, ast.Name):
            self.info.module_bindings.add(node.target.id)
            if node.target.id == "RNG_STREAMS" and node.value is not None:
                self._record_streams(node.value)
        self.generic_visit(node)

    def _record_streams(self, value: ast.expr) -> None:
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            names = tuple(elt.value for elt in value.elts
                          if isinstance(elt, ast.Constant)
                          and isinstance(elt.value, str))
            self.info.rng_streams = names


class Project:
    """Every module parsed once, indexed for the whole-program passes."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare function/method name -> [qualnames] (CHA-lite resolution)
        self.methods_by_name: Dict[str, List[str]] = defaultdict(list)
        self.classes: Dict[str, List[ClassInfo]] = defaultdict(list)

    @classmethod
    def from_sources(cls, sources: Dict[str, str],
                     trees: Optional[Dict[str, ast.Module]] = None
                     ) -> "Project":
        """Build a project from ``{path: source}`` (paths are posix-ish).

        Files that fail to parse are skipped — the per-file pass already
        reports the syntax error (VR000).
        """
        project = cls()
        for path, source in sorted(sources.items()):
            tree = (trees or {}).get(path)
            if tree is None:
                try:
                    tree = ast.parse(source, filename=path)
                except SyntaxError:
                    continue
            info = ModuleInfo(path=path, tree=tree)
            _ModuleIndexer(info, project.functions).visit(tree)
            project.modules[path] = info
        for qualname, func in project.functions.items():
            project.methods_by_name[func.name].append(qualname)
        for module in project.modules.values():
            for cls_info in module.classes.values():
                project.classes[cls_info.name].append(cls_info)
        return project

    # -- hierarchy helpers -----------------------------------------------------

    def class_hierarchy(self, name: str) -> Set[str]:
        """Class names related to ``name``: ancestors and descendants."""
        related: Set[str] = {name}
        # Ancestors.
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for cls_info in self.classes.get(current, ()):
                for base in cls_info.bases:
                    if base not in related:
                        related.add(base)
                        frontier.append(base)
        # Descendants (of anything already related).
        changed = True
        while changed:
            changed = False
            for cls_name, infos in self.classes.items():
                if cls_name in related:
                    continue
                for cls_info in infos:
                    if any(base in related for base in cls_info.bases):
                        related.add(cls_name)
                        changed = True
                        break
        return related

    def resolve_method(self, cls_name: str, method: str) -> List[str]:
        """Implementations of ``method`` visible from class ``cls_name``."""
        result: List[str] = []
        for related in self.class_hierarchy(cls_name):
            for cls_info in self.classes.get(related, ()):
                qualname = cls_info.methods.get(method)
                if qualname is not None:
                    result.append(qualname)
        return result

    def module_function(self, path: str, name: str) -> Optional[str]:
        module = self.modules.get(path)
        if module is None:
            return None
        return module.functions.get(name)

    def resolve_import(self, path: str, name: str) -> List[str]:
        """Resolve ``name`` imported into ``path`` to project functions."""
        module = self.modules.get(path)
        if module is None or name not in module.imports:
            return []
        dotted = module.imports[name]
        target_name = dotted.rsplit(".", 1)[-1]
        module_dotted = dotted.rsplit(".", 1)[0] if "." in dotted else ""
        matches: List[str] = []
        for candidate_path, candidate in self.modules.items():
            if not _module_dotted(candidate_path).endswith(module_dotted) \
                    and module_dotted:
                continue
            qualname = candidate.functions.get(target_name)
            if qualname is not None:
                matches.append(qualname)
            cls_info = candidate.classes.get(target_name)
            if cls_info is not None:
                init = cls_info.methods.get("__init__")
                if init is not None:
                    matches.append(init)
        return matches


@dataclass
class CallSite:
    """One resolved call edge with its source location."""

    caller: str
    callee: str
    lineno: int


class CallGraph:
    """Name-resolved, over-approximate call edges plus entry points."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.edges: Dict[str, List[CallSite]] = defaultdict(list)
        self.entry_points: Set[str] = set()
        self._build()

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        for qualname, func in self.project.functions.items():
            if func.parent is not None:
                # Defining a closure counts as (potentially) calling it.
                self.edges[func.parent].append(
                    CallSite(func.parent, qualname, func.lineno))
            self._index_calls(func)
        self._find_entry_points()

    def _index_calls(self, func: FunctionInfo) -> None:
        for node in walk_shallow(func.node):
            if isinstance(node, ast.Call):
                for callee in self._resolve_call(func, node):
                    self.edges[func.qualname].append(
                        CallSite(func.qualname, callee, node.lineno))

    def _resolve_call(self, caller: FunctionInfo,
                      node: ast.Call) -> List[str]:
        func = node.func
        project = self.project
        if isinstance(func, ast.Name):
            name = func.id
            # Nested function defined in this (or an enclosing) scope.
            scope = caller.qualname
            while scope:
                nested = f"{scope}.{name}"
                if nested in project.functions:
                    return [nested]
                scope = project.functions[scope].parent \
                    if scope in project.functions else None
                if scope is None:
                    break
            local = project.module_function(caller.path, name)
            if local is not None:
                return [local]
            imported = project.resolve_import(caller.path, name)
            if imported:
                return imported
            # Same-module class construction.
            module = project.modules.get(caller.path)
            if module and name in module.classes:
                init = module.classes[name].methods.get("__init__")
                return [init] if init else []
            return []
        if isinstance(func, ast.Attribute):
            attr = func.attr
            value = func.value
            if isinstance(value, ast.Name) and value.id in ("self", "cls") \
                    and caller.cls is not None:
                resolved = project.resolve_method(caller.cls, attr)
                if resolved:
                    return resolved
            if isinstance(value, ast.Name):
                # Module-alias attribute call: hooks.register(...)
                module = project.modules.get(caller.path)
                if module and value.id in module.imports:
                    dotted = module.imports[value.id]
                    for path, info in project.modules.items():
                        if _module_dotted(path).endswith(dotted) \
                                or _module_dotted(path) == dotted:
                            qualname = info.functions.get(attr)
                            if qualname is not None:
                                return [qualname]
            if attr in BUILTIN_METHODS:
                return []
            # CHA-lite: every project method of this name.
            return [qualname
                    for qualname in project.methods_by_name.get(attr, ())
                    if project.functions[qualname].cls is not None]
        return []

    def _find_entry_points(self) -> None:
        project = self.project
        # 1. Forwarding-policy methods (any class whose hierarchy touches
        #    a POLICY_BASES marker, or defined under a forwarding/ dir).
        policy_classes: Set[str] = set()
        for name in list(project.classes):
            hierarchy = project.class_hierarchy(name)
            if hierarchy & POLICY_BASES:
                policy_classes.add(name)
        for qualname, func in project.functions.items():
            in_policy_module = "/forwarding/" in func.path
            if func.cls and (func.cls in policy_classes or in_policy_module):
                self.entry_points.add(qualname)
        # 2. Scheduled callbacks: fn argument of schedule*(delay, fn, ...).
        for qualname, func in project.functions.items():
            for node in walk_shallow(func.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if not (isinstance(callee, ast.Attribute)
                        and callee.attr in SCHEDULE_METHODS):
                    continue
                if len(node.args) < 2:
                    continue
                callback = node.args[1]
                for target in self._resolve_callback(func, callback):
                    self.entry_points.add(target)

    def _resolve_callback(self, caller: FunctionInfo,
                          node: ast.expr) -> List[str]:
        if isinstance(node, ast.Name):
            local = self.project.module_function(caller.path, node.id)
            if local is not None:
                return [local]
            nested = f"{caller.qualname}.{node.id}"
            if nested in self.project.functions:
                return [nested]
            return self.project.resolve_import(caller.path, node.id)
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls") and caller.cls:
            return self.project.resolve_method(caller.cls, node.attr)
        return []

    # -- queries ---------------------------------------------------------------

    def reachable(self, roots: Optional[Iterable[str]] = None
                  ) -> Dict[str, Optional[str]]:
        """BFS from ``roots`` (default: entry points).

        Returns ``{qualname: predecessor}`` for every reachable function
        (roots map to ``None``), so callers can reconstruct a witness
        call path for diagnostics.
        """
        if roots is None:
            roots = self.entry_points
        parents: Dict[str, Optional[str]] = {}
        queue: deque = deque()
        for root in roots:
            if root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.popleft()
            for site in self.edges.get(current, ()):
                if site.callee not in parents:
                    parents[site.callee] = current
                    queue.append(site.callee)
        return parents

    def witness_path(self, parents: Dict[str, Optional[str]],
                     target: str, limit: int = 6) -> List[str]:
        """Entry → ... → target chain reconstructed from BFS parents."""
        chain: List[str] = []
        current: Optional[str] = target
        while current is not None and len(chain) < limit:
            chain.append(current)
            current = parents.get(current)
        chain.reverse()
        return chain


def display_chain(project: Project, chain: Sequence[str]) -> str:
    """Render a call chain compactly for diagnostics."""
    names = []
    for qualname in chain:
        func = project.functions.get(qualname)
        if func is None:
            names.append(qualname)
        elif func.cls:
            names.append(f"{func.cls}.{func.name}")
        else:
            names.append(func.name)
    return " -> ".join(names)
