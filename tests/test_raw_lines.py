"""Every reader skips the same lines: blank ones, after a comment is cut.

``dsl._raw_lines`` tests a line for blankness with ``str.isspace``; the
definition here strips the line and tests what is left.
"""

import hypothesis.strategies as st
from hypothesis import given

from bevo import parse_domain, serialize_domain
from bevo.dsl import _raw_lines


def _reference(text):
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        raw = raw.split("#", 1)[0]
        if raw.strip():
            out.append((i, raw))
    return out


@given(st.text(alphabet=" \t  　\x0b\x0c#ab", max_size=40).map(lambda t: t.replace("b", "\n")))
def test_raw_lines_match_the_strip_definition(text):
    assert list(_raw_lines(text)) == _reference(text)


def test_whitespace_and_indented_comment_lines_are_skipped(litmus):
    text = serialize_domain(litmus)
    padded = "\n \t\n   # a comment\n　\n".join(text.split("\n", 2))
    assert parse_domain(padded) == litmus
