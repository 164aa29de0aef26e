"""The ``repro lint`` pipeline (``python -m repro lint``).

One pass, in this order:

1. **collect** — resolve the input paths to ``.py`` files (nonexistent
   or python-free inputs are one-line usage errors, exit 2);
2. **per-file rules** — VR001–VR004 (:mod:`repro.analysis.lint`) and
   VR140 (:mod:`repro.analysis.rules`) on every file that parses (the
   rest are VR000);
3. **project rules** — symbol table + call graph
   (:mod:`repro.analysis.callgraph`), unit dataflow to fixpoint
   (:mod:`repro.analysis.dataflow`, VR100/VR150), and the reachability
   rules VR110/VR120;
4. **path exemptions** — built-ins merged with ``[tool.repro.lint.exempt]``;
5. **suppression comments** — ``# noqa: VRxxx``, tracked: a code that
   suppresses nothing is VR090 (:mod:`repro.analysis.suppress`);
6. **text findings** — one ``path:line:col: CODE message [hint: ...]``
   line each on stdout, a summary line on stderr.

Exit status: 0 clean, 1 findings, 2 usage.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import lint as lint_mod
from repro.analysis import rules as rules_mod
from repro.analysis.callgraph import CallGraph, Project
from repro.analysis.dataflow import build_summaries, check_vr100, check_vr150
from repro.analysis.lint import LintConfig, Violation, load_config
from repro.analysis.suppress import RULE_UNUSED, apply_suppressions

#: The complete rule catalog.
ALL_RULES: Dict[str, str] = {
    **lint_mod.RULES,
    **rules_mod.RULES_VR1XX,
    RULE_UNUSED: "unused # noqa suppression",
}

ALL_HINTS: Dict[str, str] = {
    **lint_mod.HINTS,
    **rules_mod.HINTS_VR1XX,
    RULE_UNUSED: "delete the stale code from the # noqa comment",
}


class UsageError(Exception):
    """A bad invocation, reported as one line on stderr with exit 2."""


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Resolve inputs to ``.py`` files; usage errors for bad inputs."""
    missing = [entry for entry in paths if not Path(entry).exists()]
    if missing:
        raise UsageError(
            f"no such file or directory: {', '.join(missing)}")
    files: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise UsageError(f"not a python file or directory: {entry}")
    if not files:
        raise UsageError(
            f"no python files found under: {', '.join(map(str, paths))}")
    return files


def read_sources(files: Sequence[Path]) -> Tuple[Dict[str, str],
                                                 List[Violation]]:
    """``{path: text}`` for every readable file, VR000 for the rest."""
    sources: Dict[str, str] = {}
    problems: List[Violation] = []
    for path in files:
        try:
            sources[str(path)] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            problems.append(Violation(str(path), 0, 0, "VR000",
                                      f"unreadable: {exc}"))
    return sources, problems


def _project_findings(sources: Dict[str, str],
                      trees: Dict[str, ast.Module],
                      select: frozenset) -> List[Violation]:
    if not select & {"VR100", "VR110", "VR120", "VR150"}:
        return []
    project = Project.from_sources(sources, trees)
    graph = CallGraph(project)
    findings: List[Violation] = []
    if select & {"VR100", "VR150"}:
        summaries = build_summaries(project, graph)
        if "VR100" in select:
            findings.extend(check_vr100(project, graph, summaries))
        if "VR150" in select:
            findings.extend(check_vr150(project, graph, summaries))
    if "VR110" in select:
        findings.extend(rules_mod.check_vr110(project, graph))
    if "VR120" in select:
        findings.extend(rules_mod.check_vr120(project, graph))
    return findings


def run_analysis(sources: Dict[str, str],
                 config: LintConfig) -> List[Violation]:
    """Steps 2–5 over in-memory ``{path: source}``; sorted findings."""
    select = frozenset(config.select)
    trees: Dict[str, ast.Module] = {}
    raw: List[Violation] = []
    for path, source in sources.items():
        try:
            trees[path] = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raw.append(Violation(path, exc.lineno or 0, 0, "VR000",
                                 f"syntax error: {exc.msg}"))
    for path, tree in trees.items():
        raw.extend(lint_mod.check_file(tree, path, select))
        if "VR140" in select:
            raw.extend(rules_mod.check_vr140(tree, path))
    raw.extend(_project_findings(sources, trees, select))

    by_path: Dict[str, List[Violation]] = {}
    for violation in raw:
        if not lint_mod.exempt(violation.path, violation.code, config):
            by_path.setdefault(violation.path, []).append(violation)

    findings: List[Violation] = []
    for path, source in sources.items():
        violations = by_path.get(path, [])
        if path in trees:  # else VR000: no comments to honour
            violations, unused = apply_suppressions(violations, path,
                                                    source, select)
            findings.extend(unused)
        findings.extend(violations)
    findings.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return findings


def render(violation: Violation) -> str:
    hint = ALL_HINTS.get(violation.code)
    suffix = f" [hint: {hint}]" if hint else ""
    return (f"{violation.path}:{violation.line}:{violation.col}: "
            f"{violation.code} {violation.message}{suffix}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Determinism & unit-discipline analyzer: per-file "
                    "rules VR001-VR004, whole-program call-graph/dataflow "
                    "rules VR100-VR150.  Suppress one finding with a "
                    "trailing '# noqa: VRxxx' comment (stale ones are "
                    "VR090).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: "
                             "[tool.repro.lint] paths, else src)")
    parser.add_argument("--config", type=Path, default=None,
                        help="pyproject.toml to read [tool.repro.lint] "
                             "from")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule subset, e.g. "
                             "VR001,VR110")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(ALL_RULES):
            print(f"{code}: {ALL_RULES[code]}")
        return 0

    config = load_config(args.config)
    if args.select:
        config.select = tuple(code.strip().upper()
                              for code in args.select.split(","))
    unknown = [code for code in config.select if code not in ALL_RULES]
    if unknown:
        parser.error(f"unknown rule(s): {', '.join(unknown)} "
                     f"(see --list-rules)")

    try:
        files = collect_files(list(args.paths) or list(config.paths))
    except UsageError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    sources, unreadable = read_sources(files)
    findings = [*unreadable, *run_analysis(sources, config)]

    for violation in findings:
        print(render(violation))
    status = f"{len(findings)} finding(s)" if findings else "clean"
    print(f"repro lint: {len(files)} file(s) checked, {status}",
          file=sys.stderr)
    return 1 if findings else 0
