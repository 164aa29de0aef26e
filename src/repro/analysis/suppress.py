"""Suppression comments: ``# noqa: VRxxx``, tracked.

One spelling, one rule: a comment ``# noqa: VR003`` (comma-separate
several codes; free text may follow) suppresses findings with those
codes on its own line.  Codes are mandatory — a bare ``# noqa``
suppresses nothing — and every code is *tracked*: one that suppresses
nothing is itself reported as **VR090 unused suppression**, so stale
comments cannot accumulate.  Codes whose rule is outside the active
``--select`` are not judged (their rule never ran).
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import Violation

RULE_UNUSED = "VR090"

NOQA_RE = re.compile(r"#\s*noqa:\s*(?P<codes>VR\d+(?:\s*,\s*VR\d+)*)")


def parse_noqa(source: str) -> Dict[int, Tuple[str, ...]]:
    """Map line numbers to the codes their ``# noqa:`` comment names.

    Reads comment tokens only, so mentions inside strings and docstrings
    are never live suppressions.  ``source`` must tokenize (the driver
    only passes files that parsed).
    """
    suppressed: Dict[int, Tuple[str, ...]] = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = NOQA_RE.search(token.string)
        if match is not None:
            suppressed[token.start[0]] = tuple(
                code.strip() for code in match.group("codes").split(","))
    return suppressed


def apply_suppressions(violations: Sequence[Violation], path: str,
                       source: str,
                       select: Optional[AbstractSet[str]] = None,
                       ) -> Tuple[List[Violation], List[Violation]]:
    """Filter one file's ``violations`` through its ``# noqa:`` comments.

    Returns ``(surviving, unused)`` where ``unused`` holds one VR090
    finding per named code that suppressed nothing.  When ``select`` is
    given, codes outside it are exempt from VR090 — a partial
    ``--select`` must not call full-run suppressions stale.
    """
    suppressed = parse_noqa(source)
    used: Set[Tuple[int, str]] = set()
    surviving: List[Violation] = []
    for violation in violations:
        if violation.code in suppressed.get(violation.line, ()):
            used.add((violation.line, violation.code))
        else:
            surviving.append(violation)
    unused = [
        Violation(path, line, 1, RULE_UNUSED,
                  f"unused suppression: no {code} finding on this line")
        for line, codes in sorted(suppressed.items()) for code in codes
        if (line, code) not in used
        and (select is None or code in select)]
    return surviving, unused
