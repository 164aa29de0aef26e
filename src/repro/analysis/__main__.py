"""``python -m repro.analysis sanitize`` — measure sanitizer overhead.

Preferred over ``python -m repro.analysis.sanitize``: runpy would run
that file as a second module object, shadowing the canonical one the
instrumented modules registered with.  The linter is ``python -m repro
lint``.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

USAGE = "usage: python -m repro.analysis sanitize [args...]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["sanitize"]:
        from repro.analysis import sanitize

        return sanitize.main(argv[1:])
    print(USAGE, file=sys.stderr)
    return 0 if argv[:1] in (["-h"], ["--help"]) else 2


if __name__ == "__main__":
    raise SystemExit(main())
