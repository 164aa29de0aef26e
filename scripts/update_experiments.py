#!/usr/bin/env python3
"""Render the per-figure regions of EXPERIMENTS.md.

Run after a bench pass, ``pytest benchmarks/ --benchmark-only`` or the
whole registry at once (``benchmarks/figures.py``, each distinct config
run once)::

    REPRO_JOBS=2 PYTHONPATH=src python benchmarks/figures.py
    PYTHONPATH=src python scripts/update_experiments.py

Each ``<!-- figure:ID -->`` … ``<!-- /figure:ID -->`` region is replaced
by the figure's paper sentence (``benchmarks/figures.py::registry``),
its verdict lines and its table (``bench_results/ID.txt``).  Everything
outside the regions is hand-written and left byte-for-byte alone.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "EXPERIMENTS.md")
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

from figures import registry, split_result  # noqa: E402


def render(text: str) -> str:
    """``text`` (EXPERIMENTS.md) with every figure's region re-rendered."""
    for figure in registry().values():
        with open(figure.result_path) as handle:
            table, verdicts = split_result(handle.read())
        verdicts = "".join(f"- {line}\n" for line in verdicts)
        begin, end = (f"<!-- {slash}figure:{figure.id} -->\n"
                      for slash in ("", "/"))
        region = (f"{begin}**Paper:** {figure.paper}\n\n{verdicts}\n"
                  f"<details><summary>{figure.id}</summary>\n\n"
                  f"```\n{table}\n```\n</details>\n{end}")
        text, count = re.subn(re.escape(begin) + ".*?" + re.escape(end),
                              lambda _: region, text, flags=re.S)
        if count != 1:
            raise SystemExit(f"EXPERIMENTS.md has {count} regions for "
                             f"figure {figure.id!r}; it needs exactly one")
    return text


def main() -> None:
    with open(OUT) as handle:
        rendered = render(handle.read())
    with open(OUT, "w") as handle:
        handle.write(rendered)
    print(f"rendered {OUT}")


if __name__ == "__main__":
    main()
