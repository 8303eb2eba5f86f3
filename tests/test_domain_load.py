"""Differential tests for domain loading.

``parse_domain`` reads a transition line whose two literal bodies are
canonical, as ``serialize_domain`` writes them, with one pattern match and
two lookups in ``Signature._literal_states``; every other line, spaced or
reordered literals included, goes through the ``_Cursor`` grammar.  The
reference below decodes every transition line with ``_Cursor``; the two must
agree on the document or on the error (message, line and column).
``complete_transitions`` fills successor tables directly and is checked
against the definitional relation and the public constructor; the stored
form of both is checked against a dict-of-sets model of the triples.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bevo import (
    NULL_ACTION,
    ParseError,
    TransitionSystem,
    complete_transitions,
    format_state,
    make_signature,
    parse_domain,
    serialize_domain,
    update,
    update_seq,
)
from bevo import dsl
from bevo.dsl import DomainDoc

_SIG = make_signature(("f0", "f1", "f2"), ("a", "b"))
# Both parsers read the header's transition line; the line under test comes
# after it.
_HEADER = "domain d\nfluents f0 f1 f2\nactions a b\ntransition a: {} -> {f0}\n"
_HEADER_LINES = 3


def _reference(text: str) -> DomainDoc:
    """parse_domain for _HEADER plus transition lines, each read by _Cursor."""
    triples = []
    for lineno, raw in dsl._raw_lines(text):
        if lineno <= _HEADER_LINES:
            continue
        cur = dsl._Cursor(raw, lineno)
        key = cur.word()
        if key != "transition":
            raise cur.error(f"unknown directive {key!r}")
        act = cur.word()
        if act == NULL_ACTION:
            raise cur.error(
                f"the {NULL_ACTION!r} action is implicit and cannot have "
                "explicit transitions"
            )
        if act not in _SIG.actions:
            cur.pos -= len(act)
            raise cur.error(f"unknown action {act!r}")
        cur.expect(":")
        src = cur.state_literal(_SIG)
        cur.expect("->")
        dst = cur.state_literal(_SIG)
        cur.expect_end()
        triples.append((src, act, dst))
    return DomainDoc("d", _SIG, complete_transitions(_SIG, triples))


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return (e.message, e.line, e.col)


def _agree(line: str) -> None:
    text = _HEADER + line + "\n"
    assert _outcome(parse_domain, text) == _outcome(_reference, text)


_CANONICAL = [
    "transition b: {f0,f2} -> {f1}",
    "transition a: {} -> {}",
    "transition a: {f0,f1,f2} -> {f2}",
    "transition b: {f2,f0} -> {f1,f0}",
    "transition a: {f1} -> {f0}  # comment",
]
_SPACED = [
    "  transition\tb :  { f0 ,\tf2 }->{ }  ",
    "\ttransition a:{f1}\t->\t{f0,f1}\t",
    "transition    a  :  {  }  ->  {  f2  }",
    "transition\t\tb\t:\t{\tf0\t}\t->\t{\tf1\t,\tf2\t}",
]
_MALFORMED = [
    "transition a: {f9} -> {f0}",
    "transition a: {f0} -> {f1,f9}",
    "transition a: {f0,f0} -> {f1}",
    "transition a: {f1} -> {f2, f2}",
    "transition a: {f0,} -> {f1}",
    "transition a: {,f0} -> {f1}",
    "transition a: {f0 f1} -> {f1}",
    "transition c: {f0} -> {f1}",
    "transition noop: {f0} -> {f0}",
    "transition a: {f0} -> {f1} x",
    "transition a: {f0} -> {f1} -> {f2}",
    "transition a: {f0} {f1}",
    "transition a: {f0} - > {f1}",
    "transition a {f0} -> {f1}",
    "transitiona: {f0} -> {f1}",
    "transition a: {f0} -> {f1}}",
    "transition a: {{f0}} -> {f1}",
    "transition a: f0 -> {f1}",
    "transition a: {f0} ->",
    "transition a:",
    "transition",
    "transition a: {f0}\u00a0-> {f1}",
    "transition\u00a0a: {f0} -> {f1}",
    "transition a: {f0,\u2003f1} -> {f1}",
    "\u00a0transition a: {f0} -> {f1}",
    "transition a: {f\u00e9} -> {f1}",
    "transition \u00e9: {f0} -> {f1}",
    "transition a: {f0} -> {f1}\u00a0",
    "transition a: {F0} -> {f1}",
]


# The fast pattern takes any action token and any brace-free literal body;
# on these lines the name lookups must then decide as _Cursor does.
_LOOKED_UP = [
    "transition a: {f0 ,f1} -> {f1}",
    "transition a: {\t} -> {f1}",
    "transition a: {f1} -> {  }",
    "transition b: {f2,f1,f0} -> {\tf2 ,f0}",
]
_LOOKED_UP_MALFORMED = [
    "transition a: {,} -> {f1}",
    "transition a: {f0,,f1} -> {f1}",
    "transition a: {f1} -> { , }",
    "transition a{: {f0} -> {f1}",
    "transition a->: {f0} -> {f1}",
]


@pytest.mark.parametrize(
    "line", _CANONICAL + _SPACED + _MALFORMED + _LOOKED_UP + _LOOKED_UP_MALFORMED
)
def test_transition_line_matches_cursor_reference(line):
    _agree(line)


# The well-formed lines whose two literal bodies are canonical: true fluents
# in declaration order, commas and no spaces.
_FAST = [
    "transition b: {f0,f2} -> {f1}",
    "transition a: {} -> {}",
    "transition a: {f0,f1,f2} -> {f2}",
    "transition a: {f1} -> {f0}  # comment",
    "\ttransition a:{f1}\t->\t{f0,f1}\t",
]
_NOT_FAST = [line for line in _CANONICAL + _SPACED + _LOOKED_UP if line not in _FAST]


def _refuse_cursor_literals(monkeypatch):
    def refuse(self, sig):
        raise AssertionError(f"cursor read a literal on line {self.line}")

    monkeypatch.setattr(dsl._Cursor, "state_literal", refuse)


@pytest.mark.parametrize("line", _FAST)
def test_canonical_lines_skip_the_cursor(line, monkeypatch):
    # The pattern and the table lookups alone read these lines, and the
    # header's; the cursor reads only the other header lines.
    _refuse_cursor_literals(monkeypatch)
    parse_domain(_HEADER + line + "\n")


@pytest.mark.parametrize("line", _NOT_FAST)
def test_other_well_formed_lines_go_through_the_cursor(line, monkeypatch):
    read = []
    state_literal = dsl._Cursor.state_literal

    def spy(self, sig):
        read.append(self.line)
        return state_literal(self, sig)

    monkeypatch.setattr(dsl._Cursor, "state_literal", spy)
    doc = parse_domain(_HEADER + line + "\n")
    # Both literals of the line under test, and no literal of the header.
    assert read == [_HEADER_LINES + 2] * 2
    assert doc == _reference(_HEADER + line + "\n")


def test_malformed_lines_are_errors():
    for line in _MALFORMED:
        with pytest.raises(ParseError):
            parse_domain(_HEADER + line + "\n")


_TOKENS = [
    "transition", "transition ", " ", "\t", "\u00a0", "a", "b", "c", "noop",
    ":", "{", "}", ",", "f0", "f1", "f2", "f9", "->", "-", ">", "x", "#",
    "{,}", "{f0,,f1}", "{f0 ,f1}", "{\t}", "a{", "a->",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=14))
def test_token_soup_matches_cursor_reference(tokens):
    _agree("transition " + "".join(tokens))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("a", "b")),
            st.lists(st.sampled_from(("f0", "f1", "f2")), unique=True),
            st.lists(st.sampled_from(("f0", "f1", "f2")), unique=True),
            st.sampled_from(("", " ", "\t", "  ")),
        ),
        max_size=12,
    )
)
def test_whole_domains_match_cursor_reference(lines):
    text = _HEADER + "".join(
        f"transition{w} {a}{w}:{w}{{{w}{(w + ',' + w).join(s)}{w}}}{w}->"
        f"{w}{{{(',' + w).join(d)}}}{w}\n"
        for a, s, d, w in lines
    )
    assert _outcome(parse_domain, text) == _outcome(_reference, text)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 16])
def test_canonical_literal_table_names_every_state(n):
    sig = make_signature([f"f{k}" for k in range(n)])
    table = sig._literal_states
    assert len(table) == sig.num_states
    for s in range(sig.num_states):
        assert table[format_state(sig, s)[1:-1]] == s


# ---------------------------------------------------------------------------
# Successor tables.

_TRIPLES = st.lists(
    st.tuples(st.integers(0, 7), st.sampled_from(("a", "b")), st.integers(0, 7)),
    max_size=24,
)


def _definitional(sig, triples):
    listed = set(triples)
    covered = {(s, a) for s, a, _ in listed}
    return frozenset(
        listed
        | {(s, a, s) for a in sig.actions for s in range(sig.num_states)
           if a == NULL_ACTION or (s, a) not in covered}
    )


@settings(max_examples=300, deadline=None)
@given(_TRIPLES)
def test_complete_transitions_matches_constructor(triples):
    ts = complete_transitions(_SIG, triples)
    assert ts.relation == _definitional(_SIG, triples)
    again = TransitionSystem(_SIG, ts.relation)
    assert again == ts
    assert hash(again) == hash(ts)
    assert again.deterministic == ts.deterministic
    for a in _SIG.actions:
        for s in range(_SIG.num_states):
            assert again.successors(s, a) == ts.successors(s, a)
        if ts.deterministic:
            assert again.successor_map(a) == ts.successor_map(a)


@st.composite
def _listed_systems(draw):
    """A signature of 0-3 fluents and two actions, triples giving each
    (state, action) pair 0-4 successors, and a shuffled copy of the triples
    with duplicates."""
    n = draw(st.integers(0, 3))
    sig = make_signature([f"f{k}" for k in range(n)], ("a", "b"))
    states = st.integers(0, sig.num_states - 1)
    triples = [
        (s, a, d)
        for a in ("a", "b")
        for s in range(sig.num_states)
        for d in draw(st.sets(states, max_size=4))
    ]
    again = list(triples)
    if triples:
        again += draw(st.lists(st.sampled_from(triples), max_size=6))
    return sig, triples, draw(st.permutations(again))


@settings(max_examples=300, deadline=None)
@given(_listed_systems(), st.data())
def test_stored_form_matches_dict_of_sets(listed, data):
    sig, triples, shuffled = listed
    model: dict = {}
    for s, a, d in _definitional(sig, triples):
        model.setdefault((a, s), set()).add(d)
    n = sig.num_states
    ts = complete_transitions(sig, triples)
    assert ts.relation == {(s, a, d) for (a, s), row in model.items() for d in row}
    assert ts.deterministic == all(len(row) == 1 for row in model.values())
    for a in sig.actions:
        for s in range(n):
            assert ts.successors(s, a) == model[a, s]
        if ts.deterministic:
            assert ts.successor_map(a) == tuple(min(model[a, s]) for s in range(n))
    kappa = data.draw(st.frozensets(st.integers(0, n - 1)))
    acts = data.draw(st.lists(st.sampled_from(sig.actions), max_size=3))
    expected = set(kappa)
    for a in acts:
        step = {d for s in expected for d in model[a, s]}
        assert update(expected, a, ts) == step
        expected = step
    assert update_seq(kappa, acts, ts) == expected
    full = list(ts.relation)
    for other in (
        complete_transitions(sig, shuffled),
        TransitionSystem(sig, data.draw(st.permutations(full + full[:3]))),
    ):
        assert other == ts
        assert hash(other) == hash(ts)


def test_complete_transitions_exhaustive_one_fluent():
    sig = make_signature(("p",), ("a",))
    every = [(s, "a", d) for s in range(2) for d in range(2)]
    for k in range(len(every) + 1):
        for triples in itertools.combinations(every, k):
            ts = complete_transitions(sig, triples)
            assert ts.relation == _definitional(sig, triples)
            assert TransitionSystem(sig, ts.relation) == ts


def test_systems_differ_when_relations_differ():
    one = complete_transitions(_SIG, [(0, "a", 1)])
    two = complete_transitions(_SIG, [(0, "a", 2)])
    assert one != two
    assert one == complete_transitions(_SIG, [(0, "a", 1), (0, "a", 1)])


# ---------------------------------------------------------------------------
# Serialization round trip.


def _domain_text(triples, pragma=""):
    lines = [f"transition {a}: {format_state(_SIG, s)} -> {format_state(_SIG, d)}"
             for s, a, d in triples]
    return "domain d\nfluents f0 f1 f2\nactions a b\n" + "".join(
        line + "\n" for line in lines
    ) + pragma


def _round_trips(doc):
    text = serialize_domain(doc)
    again = parse_domain(text)
    assert again == doc
    assert serialize_domain(again) == text


@settings(max_examples=200, deadline=None)
@given(_TRIPLES)
def test_serialize_round_trips_nondeterministic(triples):
    _round_trips(parse_domain(_domain_text(triples)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 7), min_size=1, max_size=3), min_size=16, max_size=16))
def test_serialize_round_trips_strict(rows):
    triples = [(s, a, d) for (a, s), row in zip(itertools.product("ab", range(8)), rows)
               for d in sorted(row)]
    doc = parse_domain(_domain_text(triples, "strict\n"))
    assert doc.strict
    _round_trips(doc)


_FLUENT_NAMES = ("f0", "f1", "f2", "Red", "Acid", "p", "q_1", "_x", "Z9", "wet")


@st.composite
def _domains(draw):
    """A domain of 0-8 fluents, in any declaration order, and 0-2 user
    actions; deterministic or not, with any pragmas it satisfies."""
    fluents = draw(st.lists(st.sampled_from(_FLUENT_NAMES), unique=True, max_size=8))
    actions = draw(st.lists(st.sampled_from(("a", "b")), unique=True))
    sig = make_signature(fluents, actions)
    triples = []
    if actions:
        states = st.integers(0, sig.num_states - 1)
        sources = st.tuples(states, st.sampled_from(actions))
        if draw(st.booleans()):  # one listed successor per source
            triples = [(s, a, d) for (s, a), d in draw(st.dictionaries(sources, states)).items()]
        else:
            triples = [(s, a, d) for (s, a), d in draw(st.lists(st.tuples(sources, states)))]
    ts = complete_transitions(sig, triples)
    deterministic = ts.deterministic and draw(st.booleans())
    return DomainDoc("d", sig, ts, deterministic, draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(_domains())
def test_serialized_domains_skip_the_cursor(doc):
    # Every transition line serialize_domain writes is canonical, so the fast
    # path reads the whole of it.
    with pytest.MonkeyPatch.context() as monkeypatch:
        _refuse_cursor_literals(monkeypatch)
        assert parse_domain(serialize_domain(doc)) == doc


def test_deterministic_duplicate_reported_alike_before_and_after_pragma():
    body = (
        "transition a: {f0} -> {f1}\ntransition b: {} -> {f2}\n"
        "transition a: {f0} -> {f2}\ntransition a: {f0} -> {}\n"
    )
    head = "domain d\nfluents f0 f1 f2\nactions a b\n"
    message = "duplicate transition source under 'deterministic': a from {f0}"
    col = len("transition a: {f0} -> {f2}") + 1
    assert _outcome(parse_domain, head + "deterministic\n" + body) == (message, 7, col)
    assert _outcome(parse_domain, head + body + "deterministic\n") == (message, 6, col)
