"""Generated domains, scenarios, rankings and argv never crash ``bevo``.

Every run of ``cli.main`` must end in exit 0, 1 or 2 (an argparse
``SystemExit`` counts as its code), print nothing to stdout unless it
succeeded, and let no other exception escape.  A diagnostic on exit 1 must
be located (``line N, col M``) unless it is one of the position-less errors
in ``_UNLOCATED``.  ``check`` is left out: its ``--samples`` leaves its
runtime unbounded.
"""

import contextlib
import io
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bevo.cli import main

_WORDS = [
    "domain", "scenario", "ranking", "fluents", "actions", "transition",
    "deterministic", "strict", "initial", "states", "formula", "act", "obs",
    "reliability", "recency", "constant", "weights", "mode", "credulous",
    "skeptical", "base", "rank", "noop", "p", "q", "a", "b",
]
_NUMBERS = ["0", "1", "2", "-3", "9" * 5000]
_SYMBOLS = [
    "{", "}", "{}", "{p}", "{p,q}", "{ {} }", "{ {p}, {q} }", "{ }", ":",
    "->", ",", "!", "&", "|", "(", ")", "<->", "#", *_NUMBERS,
]
_token_line = st.lists(st.sampled_from(_WORDS + _SYMBOLS), max_size=8).map(" ".join)
_raw_line = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)


def _document(header: st.SearchStrategy[str], good_lines: list[str]):
    """A file: mostly a header from ``header`` and valid lines, maybe one of
    tokens or raw text.

    ``{n}`` in a good line stands for an integer literal.
    """
    good = st.builds(
        str.format, st.sampled_from(good_lines), n=st.sampled_from(_NUMBERS)
    )
    junk = st.lists(st.one_of(_token_line, _raw_line), max_size=1)
    return st.builds(
        lambda head, keep, body, extra, at: (head if keep else "")
        + "\n".join(body[:at] + extra + body[at:])
        + "\n",
        header,
        st.sampled_from([True, True, True, False]),
        st.lists(good, max_size=6),
        junk,
        st.integers(0, 6),
    )


# Mostly a valid header; otherwise one that breaks a header rule.  An empty
# 'actions' line is always followed by another, since a domain without the
# action a would turn '--actions a' into an unlocated error.
_domain_headers = st.sampled_from(
    ["domain d\nfluents p q\nactions a\n"] * 10
    + [
        "domain d\nfluents p p\nactions a\n",
        "domain d\nfluents p q\nactions\nactions a\n",
        "domain d\nfluents p q\nactions a\nactions a\n",
        "domain d\nfluents p q\nactions a a\n",
        "domain d\nfluents p q-r\nactions a\n",
    ]
)
_domains = _document(
    _domain_headers,
    [
        "transition a: {{}} -> {{p}}", "transition a: {{p}} -> {{q}}",
        "transition a: {{p}} -> {{p,q}}", "deterministic", "strict", "# note",
    ],
)
_scenarios = _document(
    st.just("scenario s\ninitial states { {} }\n"),
    [
        "act a", "act noop", "obs formula p", "obs formula !p & q",
        "obs states {{ {{q}} }}", "initial formula p | q", "reliability constant",
        "reliability recency", "reliability weights {n} 1", "mode skeptical",
    ],
)
_rankings = _document(
    st.just("ranking r\nfluents p q\nbase { {} }\n"),
    ["rank {{}}: 0", "rank {{p}}: 1", "rank {{q}}: {n}", "rank {{p,q}}: 2"],
)
_values = st.one_of(
    st.sampled_from(["p", "!p | q", "{ {} }", "{ {p}, {q} }", "{ }", "p &", "r"]),
    _token_line,
    _raw_line,
)
_actions = st.lists(st.sampled_from(["a", "noop", "b"]), max_size=3)


@st.composite
def _argv(draw) -> list[str]:
    cmd = draw(st.sampled_from(["evolve", "update", "revise", "preimage", "repair"]))
    argv = [cmd]
    if cmd != "revise" or draw(st.booleans()):
        argv += ["--domain", draw(st.sampled_from(["d.bevd"] * 9 + ["missing.bevd"]))]
    if cmd in ("evolve", "repair"):
        argv += ["--scenario", "s.bevs"]
    if cmd in ("update", "revise"):
        argv += ["--belief", draw(_values)]
    if cmd in ("revise", "preimage"):
        argv += ["--obs", draw(_values)]
    if cmd in ("update", "preimage"):
        argv += ["--actions", *draw(_actions)]
    if cmd in ("evolve", "revise"):
        argv += ["--ranking", draw(st.sampled_from(["dalal", "r.bevr"]))]
    argv += ["--format", draw(st.sampled_from(["text", "machine"]))]
    return argv + draw(st.sampled_from([[]] * 17 + [["--bogus"], ["--format"], ["-h"]]))


_LOCATED = re.compile(r"^bevo: error: \S+: line \d+, col \d+: ")
# Errors about the run rather than about a place in a file or value.
_UNLOCATED = (
    "No such file or directory",  # --domain missing.bevd
    "a Hamming ranking needs --domain to supply the fluents",
    "is only faithful to its own base belief state",  # .bevr base != --belief
    "cannot revise an empty belief state",  # revise --belief "{ }"
    "unknown action 'b'",  # --actions b: the domain declares only a
    "this operation requires a deterministic transition system",
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(domain=_domains, scenario=_scenarios, ranking=_rankings, argv=_argv())
def test_main_exits_cleanly_on_any_input(workdir, domain, scenario, ranking, argv):
    for name, text in (("d.bevd", domain), ("s.bevs", scenario), ("r.bevr", ranking)):
        (workdir / name).write_text(text, encoding="utf-8")
    paths = {"d.bevd", "missing.bevd", "s.bevs", "r.bevr"}
    argv = [str(workdir / a) if a in paths else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code, usage = e.code or 0, True
    assert code in (0, 1, 2)
    if code != 0:
        assert out.getvalue() == ""
    if code == 1 and not usage:
        message = err.getvalue()
        assert _LOCATED.match(message) or any(u in message for u in _UNLOCATED), message
