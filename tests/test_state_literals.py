"""Every reader of fluent names into a state, and its diagnostics.

An unknown fluent and a fluent listed twice are pinned, message, line and
column, wherever a state is read from text: domain transition lines (one
the whole-line pattern accepts and ones only the cursor reads), scenario
``initial states``, ranking ``base`` and ``rank``, ``--belief`` and result
JSON documents.  The readers differ on repeated names, and that stays
recorded here: state literals reject ``{p,p}``, while ``state_index`` and
result JSON documents read a repeated name as one.
"""

import json

import pytest

from bevo import (
    ParseError,
    make_signature,
    parse_domain,
    parse_ranking,
    parse_scenario,
    parse_state_set,
    result_from_json,
    state_index,
)
from bevo.cli import main

from conftest import DATA

_DOMAIN = "domain d\nfluents p q\nactions a\n"
_FIRST = "transition a: {} -> {p}\n"
_RANKING = "ranking r\nfluents p q\n"
_RANKS = "rank {}: 0\nrank {p}: 1\nrank {q}: 1\nrank {p,q}: 2\n"
_UNKNOWN = "unknown fluent 'zz'"


def _where(parse, text):
    with pytest.raises(ParseError) as e:
        parse(text)
    return e.value.message, e.value.line, e.value.col


@pytest.mark.parametrize(
    "text, expected",
    [
        # Accepted by the whole-line pattern, after the first transition.
        (_DOMAIN + _FIRST + "transition a: {p} -> {zz}\n", (_UNKNOWN, 5, 23)),
        (_DOMAIN + _FIRST + "transition a: {p} -> {q,q}\n",
         ("fluent 'q' listed twice", 5, 25)),
        # The first transition line fixes the signature: cursor only.
        (_DOMAIN + "transition a: {zz} -> {p}\n", (_UNKNOWN, 4, 16)),
        (_DOMAIN + "transition a: {p,p} -> {q}\n", ("fluent 'p' listed twice", 4, 18)),
        # Malformed after the literal: the pattern fails, the cursor reads it.
        (_DOMAIN + _FIRST + "transition a: {zz} -> {p\n", (_UNKNOWN, 5, 16)),
        (_DOMAIN + _FIRST + "transition a:{q ,\tq}->\n",
         ("fluent 'q' listed twice", 5, 19)),
    ],
    ids=["pattern-unknown", "pattern-twice", "first-unknown", "first-twice",
         "cursor-unknown", "cursor-twice"],
)
def test_domain_transition_literals(text, expected):
    assert _where(parse_domain, text) == expected


@pytest.mark.parametrize(
    "line, expected",
    [
        ("initial states { {zz} }", (_UNKNOWN, 2, 19)),
        ("initial states { {q,q} }", ("fluent 'q' listed twice", 2, 21)),
    ],
)
def test_scenario_initial_literals(line, expected):
    dom = parse_domain(_DOMAIN)
    assert _where(lambda t: parse_scenario(t, dom), f"scenario s\n{line}\nact a\n") == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        (_RANKING + "base { {zz} }\n" + _RANKS, (_UNKNOWN, 3, 9)),
        (_RANKING + "base { {p,p} }\n" + _RANKS, ("fluent 'p' listed twice", 3, 11)),
        (_RANKING + "base { {} }\nrank {zz}: 0\n", (_UNKNOWN, 4, 7)),
        (_RANKING + "base { {} }\nrank {p,p}: 0\n", ("fluent 'p' listed twice", 4, 9)),
    ],
    ids=["base-unknown", "base-twice", "rank-unknown", "rank-twice"],
)
def test_ranking_literals(text, expected):
    assert _where(parse_ranking, text) == expected


@pytest.mark.parametrize(
    "belief, message",
    [
        ("{ {Zz} }", "line 1, col 4: unknown fluent 'Zz'"),
        ("{ {Acid,Acid} }", "line 1, col 9: fluent 'Acid' listed twice"),
    ],
)
def test_cli_belief_literals(capsys, belief, message):
    code = main(["update", "--domain", str(DATA / "litmus.bevd"), "--belief", belief])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"bevo: error: --belief: {message}\n")


def test_state_set_literal_diagnostics_match_the_files():
    sig = make_signature(("p", "q"))
    assert _where(lambda t: parse_state_set(t, sig), "{ {zz} }") == (_UNKNOWN, 1, 4)
    assert _where(lambda t: parse_state_set(t, sig), "{ {q,q} }") == (
        "fluent 'q' listed twice", 1, 6)


def _trajectory_doc(names):
    return json.dumps({
        "scenario": "",
        "signature": {"fluents": ["p", "q"], "actions": []},
        "consistent": None,
        "repairs": None,
        "trajectories": [[[names]]],
    })


def test_result_json_names():
    with pytest.raises(ValueError) as e:
        result_from_json(_trajectory_doc(["zz"]))
    assert str(e.value) == "result document: field trajectories names unknown fluent 'zz'"
    with pytest.raises(ValueError) as e:
        result_from_json(_trajectory_doc([["p"]]))
    assert str(e.value) == "result document: field trajectories names unknown fluent ['p']"
    # A repeated name is read as one.
    sig, traj = result_from_json(_trajectory_doc(["q", "q"]))
    assert traj == (frozenset({state_index(sig, ["q"])}),)


def test_state_index_names():
    sig = make_signature(("p", "q"))
    with pytest.raises(ValueError) as e:
        state_index(sig, ["zz"])
    assert str(e.value) == _UNKNOWN
    with pytest.raises(ValueError) as e:
        state_index(sig, [["p"]])
    assert str(e.value) == "unknown fluent ['p']"
    assert state_index(sig, ["q", "q"]) == state_index(sig, ["q"]) == 2
