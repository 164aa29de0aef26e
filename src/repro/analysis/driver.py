"""The ``repro lint`` pipeline (``python -m repro lint``).

One pass, in this order:

1. **collect** — resolve the input paths to ``.py`` files (nonexistent
   or python-free inputs are one-line usage errors, exit 2);
2. **rules** — one loop over the files that parse (the rest are VR000),
   every rule a function of that file's AST: VR001–VR004
   (:mod:`repro.analysis.lint`), VR100/VR150
   (:mod:`repro.analysis.dataflow`), VR110/VR140
   (:mod:`repro.analysis.rules`);
3. **path exemptions** — built-ins merged with ``[tool.repro.lint.exempt]``;
4. **suppression comments** — ``# noqa: VRxxx``, tracked: a code that
   suppresses nothing is VR090 (:mod:`repro.analysis.suppress`);
5. **text findings** — one ``path:line:col: CODE message [hint: ...]``
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
from repro.analysis.dataflow import check_vr100, check_vr150
from repro.analysis.lint import (
    HINTS,
    RULES,
    LintConfig,
    Violation,
    load_config,
)
from repro.analysis.rules import check_vr110, check_vr140
from repro.analysis.suppress import apply_suppressions

#: The rules that are one ``(tree, path)`` function per code; VR001–VR004
#: share one visitor (:func:`repro.analysis.lint.check_file`).
_SINGLE_CODE_RULES = {
    "VR100": check_vr100,
    "VR110": check_vr110,
    "VR140": check_vr140,
    "VR150": check_vr150,
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


def run_analysis(sources: Dict[str, str],
                 config: LintConfig) -> List[Violation]:
    """Steps 2–4 over in-memory ``{path: source}``; sorted findings."""
    select = frozenset(config.select)
    findings: List[Violation] = []
    for path, source in sources.items():
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:  # no tree, no comments to honour
            findings.append(Violation(path, exc.lineno or 0, 0, "VR000",
                                      f"syntax error: {exc.msg}"))
            continue
        raw = lint_mod.check_file(tree, path, select)
        for code, check in _SINGLE_CODE_RULES.items():
            if code in select:
                raw.extend(check(tree, path))
        kept = [violation for violation in raw
                if not lint_mod.exempt(path, violation.code, config)]
        kept, unused = apply_suppressions(kept, path, source, select)
        findings.extend(kept)
        findings.extend(unused)
    findings.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return findings


def render(violation: Violation) -> str:
    hint = HINTS.get(violation.code)
    suffix = f" [hint: {hint}]" if hint else ""
    return (f"{violation.path}:{violation.line}:{violation.col}: "
            f"{violation.code} {violation.message}{suffix}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Determinism & unit-discipline analyzer: rules "
                    "VR001-VR150, each a function of one file's AST.  "
                    "Suppress one finding with a trailing "
                    "'# noqa: VRxxx' comment (stale ones are VR090).")
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
        for code, description in RULES.items():
            print(f"{code}: {description}")
        return 0

    config = load_config(args.config)
    if args.select:
        config.select = tuple(code.strip().upper()
                              for code in args.select.split(","))
    unknown = [code for code in config.select if code not in RULES]
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
