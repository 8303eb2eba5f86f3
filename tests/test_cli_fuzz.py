"""Generated domains, scenarios, rankings and argv never crash ``bevo``.

Every run of ``cli.main`` must end in exit 0, 1 or 2 (an argparse
``SystemExit`` counts as its code), print nothing to stdout unless it
succeeded, and let no other exception escape.  ``check`` is left out: its
``--samples`` leaves its runtime unbounded.
"""

import contextlib
import io

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


def _document(header: str, good_lines: list[str]):
    """A file: mostly a valid header and lines, maybe one of tokens or raw text.

    ``{n}`` in a good line stands for an integer literal.
    """
    good = st.builds(
        str.format, st.sampled_from(good_lines), n=st.sampled_from(_NUMBERS)
    )
    junk = st.lists(st.one_of(_token_line, _raw_line), max_size=1)
    return st.builds(
        lambda keep, body, extra, at: (header if keep else "")
        + "\n".join(body[:at] + extra + body[at:])
        + "\n",
        st.sampled_from([True, True, True, False]),
        st.lists(good, max_size=6),
        junk,
        st.integers(0, 6),
    )


_domains = _document(
    "domain d\nfluents p q\nactions a\n",
    [
        "transition a: {{}} -> {{p}}", "transition a: {{p}} -> {{q}}",
        "transition a: {{p}} -> {{p,q}}", "deterministic", "strict", "# note",
    ],
)
_scenarios = _document(
    "scenario s\ninitial states { {} }\n",
    [
        "act a", "act noop", "obs formula p", "obs formula !p & q",
        "obs states {{ {{q}} }}", "initial formula p | q", "reliability constant",
        "reliability recency", "reliability weights {n} 1", "mode skeptical",
    ],
)
_rankings = _document(
    "ranking r\nfluents p q\nbase { {} }\n",
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
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code or 0
    assert code in (0, 1, 2)
    if code != 0:
        assert out.getvalue() == ""
