"""``# noqa: VRxxx`` suppression comments and VR090 unused-suppression
tracking."""

import textwrap

from repro.analysis.lint import Violation
from repro.analysis.suppress import (
    RULE_UNUSED,
    apply_suppressions,
    parse_noqa,
)


def v(line, code, path="mod.py"):
    return Violation(path, line, 1, code, f"{code} message")


def test_noqa_suppresses_matching_code():
    source = "x = bad_thing()  # noqa: VR110\n"
    surviving, unused = apply_suppressions([v(1, "VR110")], "mod.py", source)
    assert surviving == []
    assert unused == []


def test_noqa_does_not_suppress_other_codes():
    source = "x = bad_thing()  # noqa: VR110\n"
    surviving, unused = apply_suppressions([v(1, "VR120")], "mod.py", source)
    assert [x.code for x in surviving] == ["VR120"]
    # ... and the VR110 code is now unused.
    assert [x.code for x in unused] == [RULE_UNUSED]


def test_noqa_multiple_codes():
    source = "x = y  # noqa: VR110, VR120 - free text may follow\n"
    surviving, unused = apply_suppressions(
        [v(1, "VR110"), v(1, "VR120")], "mod.py", source)
    assert surviving == []
    assert unused == []


def test_unused_noqa_reported_with_stale_code_in_message():
    source = "x = 1  # noqa: VR100\n"
    surviving, unused = apply_suppressions([], "mod.py", source)
    assert surviving == []
    [stale] = unused
    assert stale.code == RULE_UNUSED
    assert "VR100" in stale.message
    assert (stale.path, stale.line) == ("mod.py", 1)


def test_noqa_outside_select_is_not_reported_unused():
    # A partial --select must not call full-run suppressions stale:
    # VR120 never ran here, so its code is inapplicable, not unused.
    source = "x = 1  # noqa: VR120\n"
    surviving, unused = apply_suppressions([], "mod.py", source,
                                           select={"VR001"})
    assert surviving == []
    assert unused == []
    _, unused = apply_suppressions([], "mod.py", source, select={"VR120"})
    assert [x.code for x in unused] == [RULE_UNUSED]


def test_noqa_in_docstring_is_not_a_suppression():
    source = textwrap.dedent('''
        """Docs mention # noqa: VR110 as an example."""
        x = 1
    ''').lstrip()
    assert parse_noqa(source) == {}


def test_noqa_in_string_literal_is_not_a_suppression():
    source = 'text = "# noqa: VR110"\n'
    assert parse_noqa(source) == {}


def test_noqa_is_honored_and_tracked():
    # The spelling everyone uses is the one that must not rot silently:
    # a VR002 code on a line with no VR002 finding is itself a finding.
    source = "import time  # noqa: VR002\n"
    surviving, unused = apply_suppressions([], "mod.py", source)
    assert surviving == []
    [stale] = unused
    assert stale.code == RULE_UNUSED
    assert "VR002" in stale.message


def test_bare_noqa_suppresses_nothing():
    source = "timeout_ns = 1.5  # noqa\n"
    assert parse_noqa(source) == {}
    surviving, unused = apply_suppressions([v(1, "VR003")], "mod.py", source)
    assert [x.code for x in surviving] == ["VR003"]
    assert unused == []
