"""The docs advertise only grammar the parsers accept.

Every ``--workload`` / ``--fault`` directive, every inline-code
directive, every indented literal-block directive and every
``parse_workloads([...])`` / ``parse_faults([...])`` literal in
README.md, DESIGN.md, EXPERIMENTS.md and the verify skill, in the
``repro.faults.spec`` and ``repro.workload.spec`` docstrings, and every
example in the CLI's ``--workload`` / ``--fault`` help and module
docstring, is parsed here: a removed spelling left in a doc fails,
naming itself.  Placeholders (``link:<a>-<b>:…``, ``kind:key=value,...``)
are grammar, not examples, and are skipped; so is ``--workload <name>``
naming a benchmark-ledger workload (BENCHMARK.json), which is the
ledger's flag, not a directive.
"""

import ast
import json
import pathlib
import re

import pytest

import repro.cli
import repro.faults.spec
import repro.workload.spec
from repro.cli import build_parser
from repro.faults.spec import parse_fault
from repro.workload.spec import parse_workload

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md")
LEDGER_WORKLOADS = {workload["name"] for workload in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}

_FLAG = re.compile(r"--(workload|fault)[ =]+[\"']?([^\s\"'`\\]+)")
_CALL = re.compile(r"parse_(workloads|faults)\((\[[^\]]*\])\)")
_INLINE = re.compile(r"`(link:[^`\s]+|[a-z_-]+:[a-z_]+=[^`\s]*)`")
_BLOCK = re.compile(r"^ {4}(link:\S+|[a-z_-]+:[a-z_]+=\S*)$", re.MULTILINE)
_EXAMPLES = re.compile(r"e\.g\. (.*?);")

_PARSERS = {"workload": parse_workload, "fault": parse_fault}


def _kind(directive):
    return "fault" if directive.startswith("link:") else "workload"


def _directives(text):
    """``(kind, directive)`` for every example ``text`` shows."""
    found = [(kind, directive) for kind, directive in _FLAG.findall(text)]
    for kind, literal in _CALL.findall(text):
        found += [(kind.rstrip("s"), directive)
                  for directive in ast.literal_eval(literal)]
    found += [(_kind(directive), directive)
              for directive in _INLINE.findall(text) + _BLOCK.findall(text)]
    return [(kind, directive) for kind, directive in found
            if not re.search(r"[<…]|\.\.\.", directive)
            and directive not in LEDGER_WORKLOADS]


def _cli_text():
    helps = [action.help for action in build_parser()._actions
             if action.dest in ("workloads", "faults")]
    examples = [example for text in helps
                for match in _EXAMPLES.findall(text)
                for example in match.split(" or ")]
    assert len(helps) == 2 and len(examples) >= 6, helps
    return repro.cli.__doc__ + "".join(
        f" --{_kind(example)} {example}" for example in examples)


SOURCES = {name: lambda name=name: (ROOT / name).read_text(encoding="utf-8")
           for name in DOCS}
SOURCES["repro/cli.py"] = _cli_text
SOURCES["repro/faults/spec.py"] = lambda: repro.faults.spec.__doc__
SOURCES["repro/workload/spec.py"] = lambda: repro.workload.spec.__doc__


@pytest.mark.parametrize("source", list(SOURCES))
def test_every_documented_directive_parses(source):
    directives = _directives(SOURCES[source]())
    assert directives, f"{source} shows no directive: the scan is vacuous"
    bad = []
    for kind, directive in directives:
        try:
            _PARSERS[kind](directive)
        except ValueError as exc:
            bad.append(f"{kind} {directive!r}: {exc}")
    assert not bad, f"{source} advertises grammar the parser refuses:\n" \
        + "\n".join(bad)
