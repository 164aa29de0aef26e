"""The ``repro lint`` command: collect files, check each, print findings.

Exit status: 0 clean, 1 findings, 2 usage.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.lint import HINTS, RULES, Violation, check_file, exempt
from repro.analysis.suppress import apply_suppressions


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
    return list(dict.fromkeys(files))  # a file named twice is one file


def read_sources(files: Sequence[Path]) -> Tuple[Dict[str, str],
                                                 List[Violation]]:
    """``{path: text}`` for every readable file, VR000 for the rest.

    A file is decoded in its declared PEP 263 encoding (UTF-8 when it
    declares none); a bad declaration or undecodable bytes are VR000."""
    sources: Dict[str, str] = {}
    problems: List[Violation] = []
    for path in files:
        try:
            with tokenize.open(path) as handle:
                sources[str(path)] = handle.read()
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            problems.append(Violation(str(path), 0, 0, "VR000",
                                      f"unreadable: {exc}"))
    return sources, problems


def check_source(path: str, source: str) -> List[Violation]:
    """One file's findings: one AST walk, exemptions, suppressions."""
    try:
        tree = ast.parse(source, filename=path)
        raw = check_file(tree, path)
    except SyntaxError as exc:  # no tree, no comments to honour
        return [Violation(path, exc.lineno or 0, 0, "VR000",
                          f"syntax error: {exc.msg}")]
    except RecursionError:
        return [Violation(path, 0, 0, "VR000",
                          "too deeply nested to analyse")]
    kept = [violation for violation in raw
            if not exempt(path, violation.code)]
    kept, unused = apply_suppressions(kept, path, source)
    return [*kept, *unused]


def run_analysis(sources: Dict[str, str]) -> List[Violation]:
    """Every file's findings over in-memory ``{path: source}``, sorted."""
    findings = [violation for path, source in sources.items()
                for violation in check_source(path, source)]
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
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Determinism & unit-discipline analyzer: every rule "
                    "runs, each a function\nof one file's AST.  Suppress "
                    "one finding with a trailing\n'# noqa: VRxxx' comment "
                    "(stale ones are VR090).",
        epilog="rules:\n" + "\n".join(
            f"  {code}  {description}" for code, description in RULES.items()))
    parser.add_argument("paths", nargs="+",
                        help="files or directories, e.g. src")
    args = parser.parse_args(argv)

    try:
        files = collect_files(args.paths)
    except UsageError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    sources, unreadable = read_sources(files)
    findings = [*unreadable, *run_analysis(sources)]

    for violation in findings:
        print(render(violation))
    status = f"{len(findings)} finding(s)" if findings else "clean"
    print(f"repro lint: {len(files)} file(s) checked, {status}",
          file=sys.stderr)
    return 1 if findings else 0
