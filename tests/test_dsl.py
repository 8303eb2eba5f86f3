import json

import pytest
import hypothesis.strategies as st
from hypothesis import given

from bevo import (
    And,
    Atom,
    DomainDoc,
    EvolutionResult,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Ranking,
    RankingDoc,
    WorldView,
    complete_transitions,
    constant,
    evolve,
    make_signature,
    models,
    parse_domain,
    parse_formula,
    parse_ranking,
    parse_scenario,
    parse_state_set,
    ranking_assignment,
    result_from_json,
    revise,
    serialize_domain,
    serialize_formula,
    serialize_ranking,
    serialize_result,
    serialize_scenario,
    universe,
)
from bevo.dsl import result_to_data

from conftest import DATA, state_of

_SIG = make_signature(("p", "q", "r"), ("a",))

_DOMAIN = """\
domain d
fluents p q
actions a
transition a: {} -> {p}
"""


def _scenario(body: str) -> str:
    return "scenario s\ninitial states { {} }\n" + body


# ---------------------------------------------------------------------------
# Formulas.


def test_parse_formula_structure():
    assert parse_formula("p & !q", _SIG) == And(Atom("p"), Not(Atom("q")))
    assert parse_formula("p | q & r", _SIG) == Or(Atom("p"), And(Atom("q"), Atom("r")))
    assert parse_formula("(p | q) & r", _SIG) == And(Or(Atom("p"), Atom("q")), Atom("r"))


def test_parse_formula_arrows_right_associative():
    assert parse_formula("p -> q -> r", _SIG) == Implies(
        Atom("p"), Implies(Atom("q"), Atom("r"))
    )
    assert parse_formula("p <-> q <-> r", _SIG) == Iff(
        Atom("p"), Iff(Atom("q"), Atom("r"))
    )


def test_parse_formula_unknown_fluent_position():
    with pytest.raises(ParseError) as e:
        parse_formula("p & zz", _SIG)
    assert e.value.line == 1
    assert e.value.col == 5
    assert str(e.value) == "line 1, col 5: unknown fluent 'zz'"


def test_parse_formula_trailing_text():
    with pytest.raises(ParseError) as e:
        parse_formula("p q", _SIG)
    assert (e.value.line, e.value.col) == (1, 3)


def test_parse_formula_dangling_operator():
    with pytest.raises(ParseError):
        parse_formula("p &", _SIG)
    with pytest.raises(ParseError):
        parse_formula("p || q", _SIG)
    with pytest.raises(ParseError):
        parse_formula("(p", _SIG)


def test_serialize_formula_minimal_parens():
    assert serialize_formula(Or(And(Atom("p"), Atom("q")), Atom("r"))) == "p & q | r"
    assert serialize_formula(And(Or(Atom("p"), Atom("q")), Atom("r"))) == "(p | q) & r"
    assert serialize_formula(Not(And(Atom("p"), Atom("q")))) == "!(p & q)"
    assert serialize_formula(Implies(Implies(Atom("p"), Atom("q")), Atom("p"))) == "(p -> q) -> p"
    assert serialize_formula(Iff(Iff(Atom("p"), Atom("q")), Atom("p"))) == "(p <-> q) <-> p"


_atoms = st.sampled_from([Atom("p"), Atom("q"), Atom("r")])
_formulas = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
        st.tuples(sub, sub).map(lambda t: Iff(*t)),
    ),
    max_leaves=10,
)


@given(_formulas)
def test_formula_round_trip(f):
    assert parse_formula(serialize_formula(f), _SIG) == f


def test_serialize_formula_far_taller_than_the_parse_bound():
    # At most 100 levels are open at once while parsing, but each pair of
    # parentheses adds a whole chain to the height: trees about 2,500 deep.
    chain = parse_formula("(" * 50 + "p" + (" & q" * 49 + ")") * 50, _SIG)
    assert serialize_formula(chain) == "p" + " & q" * 2450
    assert models(chain, _SIG) == models(parse_formula("p & q", _SIG), _SIG)
    mixed = parse_formula("(" * 50 + "p" + (" & q" * 24 + " | r" * 24 + ")") * 50, _SIG)
    text = serialize_formula(mixed)
    assert text.startswith("(" * 49 + "p & q") and text.endswith(" | r")
    again = parse_formula(text, _SIG)
    assert serialize_formula(again) == text
    assert models(again, _SIG) == models(mixed, _SIG)


def test_formula_equality_and_hash_far_taller_than_the_parse_bound():
    text = "(" * 50 + "p" + (" & q" * 49 + ")") * 50
    chain, twin = parse_formula(text, _SIG), parse_formula(text, _SIG)
    assert chain == twin and chain is not twin
    assert hash(chain) == hash(twin)
    assert {chain} == {twin}
    assert chain != parse_formula(text.replace("q)", "r)", 1), _SIG)


# ---------------------------------------------------------------------------
# State sets.


def test_parse_state_set(litmus):
    sig = litmus.signature
    assert parse_state_set("{ {}, {Acid} }", sig) == frozenset(
        (state_of(sig), state_of(sig, "Acid"))
    )
    assert parse_state_set("{ }", sig) == frozenset()
    assert parse_state_set("{{Red,Acid}}", sig) == frozenset(
        (state_of(sig, "Red", "Acid"),)
    )


def test_parse_state_set_errors(litmus):
    sig = litmus.signature
    with pytest.raises(ParseError) as e:
        parse_state_set("{ {Red,Red} }", sig)
    assert "listed twice" in e.value.message
    assert e.value.col == "{ {Red,Red} }".index("Red,Red") + 4 + 1
    with pytest.raises(ParseError):
        parse_state_set("{ {Red} {Acid} }", sig)
    with pytest.raises(ParseError):
        parse_state_set("{ {Wet} }", sig)


# ---------------------------------------------------------------------------
# Domain files.


def test_parse_domain_basic():
    doc = parse_domain(_DOMAIN)
    assert doc.name == "d"
    assert doc.signature.fluents == ("p", "q")
    assert doc.signature.actions == ("a", "noop")
    assert doc.ts.successor_map("a") == (1, 1, 2, 3)
    assert not doc.declared_deterministic
    assert not doc.strict


def test_parse_domain_comments_and_blanks():
    text = "# heading\n\ndomain d  # trailing\n\nfluents p\n"
    doc = parse_domain(text)
    assert doc.name == "d"
    assert doc.signature.fluents == ("p",)


def test_parse_domain_first_directive():
    with pytest.raises(ParseError) as e:
        parse_domain("fluents p\n")
    assert e.value.line == 1
    assert "must be 'domain NAME'" in e.value.message


def test_parse_domain_unknown_fluent_position():
    line = "transition a: {p} -> {zz}"
    with pytest.raises(ParseError) as e:
        parse_domain(f"domain d\nfluents p\nactions a\n{line}\n")
    assert e.value.line == 4
    assert e.value.col == line.index("zz") + 1


def test_parse_domain_unknown_action_position():
    line = "transition go: {p} -> {p}"
    with pytest.raises(ParseError) as e:
        parse_domain(f"domain d\nfluents p\nactions a\n{line}\n")
    assert e.value.line == 4
    assert e.value.col == line.index("go") + 1


def test_parse_domain_rejects_noop_transition():
    with pytest.raises(ParseError) as e:
        parse_domain("domain d\nfluents p\ntransition noop: {} -> {p}\n")
    assert "implicit" in e.value.message


def test_parse_domain_duplicate_directives():
    with pytest.raises(ParseError):
        parse_domain("domain d\ndomain e\nfluents p\n")
    with pytest.raises(ParseError):
        parse_domain("domain d\nfluents p\nfluents q\n")
    with pytest.raises(ParseError):
        parse_domain("domain d\nfluents p\nactions a\nactions b\n")
    # An empty 'actions' line is the directive too, and pragmas are directives.
    with pytest.raises(ParseError) as e:
        parse_domain("domain d\nfluents p\nactions\nactions a\n")
    assert (e.value.message, e.value.line, e.value.col) == (
        "duplicate 'actions' directive", 4, len("actions") + 1
    )
    with pytest.raises(ParseError) as e:
        parse_domain("domain d\nfluents p\nstrict\ndeterministic\nstrict\n")
    assert (e.value.message, e.value.line) == ("duplicate 'strict' directive", 5)


@pytest.mark.parametrize("tail", ["", "actions a\ntransition a: {} -> {p}\n"])
def test_parse_domain_locates_a_repeated_fluent_on_its_line(tail):
    with pytest.raises(ParseError) as e:
        parse_domain("domain d\nfluents p p\n" + tail)
    assert (e.value.message, e.value.line) == ("duplicate fluent names", 2)


@pytest.mark.parametrize("order", ["fluents p\nactions a a\n", "actions a a\nfluents p\n"])
def test_parse_domain_locates_a_repeated_action_on_its_line(order):
    text = "domain d\n" + order
    with pytest.raises(ParseError) as e:
        parse_domain(text)
    assert e.value.message == "duplicate action names"
    assert e.value.line == text.splitlines().index("actions a a") + 1


def test_parse_domain_locates_too_many_fluents():
    line = "fluents " + " ".join(f"f{i}" for i in range(17))
    with pytest.raises(ParseError) as e:
        parse_domain(f"domain d\n{line}\nactions a\n")
    assert (e.value.message, e.value.line) == ("too many fluents (17); the cap is 16", 2)


_names = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
    st.sampled_from(["noop", "a-b", "go!", "caf\u00e9", "x y", "9"]),
)


# Every signature make_signature accepts has a file form, the one without
# fluents too.
@given(
    fluents=st.lists(_names, max_size=3),
    actions=st.lists(_names, max_size=3),
    triples=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 7))),
)
def test_every_accepted_signature_round_trips(fluents, actions, triples):
    try:
        sig = make_signature(fluents, actions)
    except ValueError:
        return
    user = [a for a in sig.actions if a != "noop"]
    n = sig.num_states
    rel = [(s % n, user[a % len(user)], d % n) for s, a, d in triples] if user else []
    doc = DomainDoc("d", sig, complete_transitions(sig, rel))
    assert parse_domain(serialize_domain(doc)) == doc


def test_parse_domain_declarations_before_transitions():
    with pytest.raises(ParseError) as e:
        parse_domain(
            "domain d\nfluents p\nactions a\n"
            "transition a: {} -> {p}\nfluents q\n"
        )
    assert e.value.line == 5


def test_parse_domain_deterministic_rejects_duplicate_source():
    body = (
        "domain d\nfluents p\nactions a\n"
        "transition a: {} -> {p}\ntransition a: {} -> {}\n"
    )
    # pragma before the transitions
    with pytest.raises(ParseError) as e:
        parse_domain("domain d\nfluents p\nactions a\ndeterministic\n"
                     "transition a: {} -> {p}\ntransition a: {} -> {}\n")
    assert e.value.line == 6
    # pragma after the transitions
    with pytest.raises(ParseError) as e:
        parse_domain(body + "deterministic\n")
    assert e.value.line == 5
    # without the pragma the relation is just nondeterministic
    doc = parse_domain(body)
    assert not doc.ts.deterministic


def test_parse_domain_strict_demands_totality():
    with pytest.raises(ParseError) as e:
        parse_domain("domain d\nfluents p\nactions a\n"
                     "transition a: {} -> {p}\nstrict\n")
    assert "strict" in e.value.message
    full = (
        "domain d\nfluents p\nactions a\n"
        "transition a: {} -> {p}\ntransition a: {p} -> {p}\nstrict\n"
    )
    assert parse_domain(full).strict


def test_parse_domain_empty_and_missing():
    with pytest.raises(ParseError):
        parse_domain("")
    with pytest.raises(ParseError):
        parse_domain("domain d\n")
    # An empty fluents line declares no fluents; only a missing one is an error.
    assert parse_domain("domain d\nfluents\n").signature.fluents == ()


def test_serialize_domain_round_trip():
    doc = parse_domain(_DOMAIN)
    canonical = serialize_domain(doc)
    again = parse_domain(canonical)
    assert again == doc
    assert serialize_domain(again) == canonical


def test_serialize_domain_strict_lists_self_loops():
    doc = parse_domain(
        "domain d\nfluents p\nactions a\n"
        "transition a: {} -> {p}\ntransition a: {p} -> {p}\nstrict\n"
    )
    text = serialize_domain(doc)
    assert "transition a: {p} -> {p}" in text
    assert parse_domain(text) == doc


def test_serialize_domain_keeps_self_loop_beside_other_successors():
    doc = parse_domain(
        "domain d\nfluents p\nactions a\n"
        "transition a: {} -> {}\ntransition a: {} -> {p}\n"
    )
    assert doc.ts.successors(0, "a") == frozenset((0, 1))
    text = serialize_domain(doc)
    assert "transition a: {} -> {}" in text
    # The self-loop of {p} is the only successor there and stays implicit.
    assert "transition a: {p} -> {p}" not in text
    again = parse_domain(text)
    assert again == doc
    assert serialize_domain(again) == text


# ---------------------------------------------------------------------------
# Scenario files.


@pytest.fixture(scope="module")
def dom():
    return parse_domain(_DOMAIN)


def test_parse_scenario_basic(dom):
    doc = parse_scenario(
        _scenario("act a\nobs formula p\n"), dom
    )
    assert doc.name == "s"
    assert doc.initial == frozenset((0,))
    assert doc.view == WorldView(("a",), (models(Atom("p"), dom.signature),))
    assert doc.reliability == "recency"
    assert doc.weights is None
    assert doc.mode == "credulous"


def test_parse_scenario_pads_leading_observation(dom):
    doc = parse_scenario(_scenario("obs formula p\n"), dom)
    assert doc.view.actions == ("noop",)


def test_parse_scenario_pads_consecutive_actions(dom):
    doc = parse_scenario(_scenario("act a\nact a\nobs formula p\n"), dom)
    assert doc.view.actions == ("a", "a")
    assert doc.view.observations[0] == universe(dom.signature)


def test_parse_scenario_pads_trailing_action(dom):
    doc = parse_scenario(_scenario("obs formula p\nact a\n"), dom)
    assert doc.view.actions == ("noop", "a")
    assert doc.view.observations[1] == universe(dom.signature)


def test_parse_scenario_weights_align_to_user_observations(dom):
    doc = parse_scenario(
        _scenario("obs formula p\nact a\nreliability weights 5\n"), dom
    )
    # the padded trailing step gets a neutral weight
    assert doc.weights == (5, 0)
    assert doc.reliability_fn()(2) == (5, 0)


def test_parse_scenario_weight_count_mismatch(dom):
    with pytest.raises(ParseError) as e:
        parse_scenario(
            _scenario("obs formula p\nreliability weights 1 2\n"), dom
        )
    assert "2 weights for 1 observation steps" in e.value.message


def test_parse_scenario_overlong_weight_is_located(dom):
    text = _scenario("obs formula p\nreliability weights " + "1" * 5000 + "\n")
    with pytest.raises(ParseError) as e:
        parse_scenario(text, dom)
    assert (e.value.line, e.value.col) == (4, len("reliability weights ") + 1)
    assert "integer too long (5000 digits)" in e.value.message


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff13"])
def test_parse_scenario_weights_are_ascii_digits(dom, digit):
    text = _scenario(f"obs formula p\nreliability weights {digit}\n")
    with pytest.raises(ParseError) as e:
        parse_scenario(text, dom)
    assert (e.value.message, e.value.line, e.value.col) == (
        "expected an integer", 4, len("reliability weights ") + 1
    )


def test_parse_scenario_initial_may_not_be_empty(dom):
    with pytest.raises(ParseError) as e:
        parse_scenario("scenario s\ninitial states { }\nobs formula p\n", dom)
    assert e.value.line == 2
    assert "may not be empty" in e.value.message


def test_parse_scenario_unknown_action(dom):
    line = "act go"
    with pytest.raises(ParseError) as e:
        parse_scenario(_scenario(line + "\nobs formula p\n"), dom)
    assert e.value.line == 3
    assert e.value.col == line.index("go") + 1


def test_parse_scenario_needs_steps(dom):
    with pytest.raises(ParseError) as e:
        parse_scenario("scenario s\ninitial states { {} }\n", dom)
    assert "at least one" in e.value.message


def test_parse_scenario_mode_and_reliability_validation(dom):
    doc = parse_scenario(
        _scenario("obs formula p\nreliability constant\nmode skeptical\n"), dom
    )
    assert doc.mode == "skeptical"
    assert doc.reliability_fn()(1) == (0,)
    with pytest.raises(ParseError):
        parse_scenario(_scenario("obs formula p\nmode bold\n"), dom)
    with pytest.raises(ParseError):
        parse_scenario(_scenario("obs formula p\nreliability karma\n"), dom)
    with pytest.raises(ParseError):
        parse_scenario(_scenario("obs formula p\nreliability weights\n"), dom)


def test_serialize_scenario_round_trip(dom):
    doc = parse_scenario(
        _scenario("obs formula p\nact a\nreliability weights 3\nmode skeptical\n"),
        dom,
    )
    canonical = serialize_scenario(doc, dom.signature)
    again = parse_scenario(canonical, dom)
    assert again == doc
    assert serialize_scenario(again, dom.signature) == canonical


# ---------------------------------------------------------------------------
# Ranking files.


def test_parse_ranking_bundled_golden():
    doc = parse_ranking((DATA / "litmus.bevr").read_text())
    assert doc.name == "cautious"
    assert doc.signature.fluents == ("Red", "Blue", "Acid")
    assert doc.ranking.base == frozenset((0, 4))
    assert doc.ranking.strata == (0b00010001, 0b01100100, 0b10001010)
    assert [doc.ranking.rank_of(s) for s in range(8)] == [0, 2, 1, 2, 0, 1, 1, 2]


def test_bundled_ranking_round_trips_byte_for_byte():
    text = (DATA / "litmus.bevr").read_text()
    body = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    assert serialize_ranking(parse_ranking(text)) == body


def test_rank_values_only_order_the_states():
    """Gapped ranks give the same strata, revisions and file as compacted ones;
    the file form writes each state's stratum index."""
    text = (DATA / "litmus.bevr").read_text()
    gapped = text.replace(": 1\n", ": 5\n").replace(": 2\n", ": 9\n")
    assert ": 9\n" in gapped and ": 1\n" not in gapped
    doc, compact = parse_ranking(gapped), parse_ranking(text)
    assert doc.ranking == compact.ranking
    assert serialize_ranking(doc) == serialize_ranking(compact)
    base = compact.ranking.base
    for m in range(256):
        alpha = frozenset(s for s in range(8) if m >> s & 1)
        assert revise(base, alpha, ranking_assignment(doc)) == revise(
            base, alpha, ranking_assignment(compact)
        )


def test_parse_ranking_requires_full_coverage():
    with pytest.raises(ParseError) as e:
        parse_ranking(
            "ranking r\nfluents p\nbase { {} }\nrank {}: 0\n"
        )
    assert "no rank given" in e.value.message


def test_parse_ranking_rejects_unfaithful():
    text = (
        "ranking r\nfluents p\nbase { {} }\n"
        "rank {}: 1\nrank {p}: 1\n"
    )
    with pytest.raises(ParseError) as e:
        parse_ranking(text)
    assert e.value.line == 3
    assert "not faithful" in e.value.message


def test_parse_ranking_overlong_rank_is_located():
    text = "ranking r\nfluents p\nbase { {} }\nrank {}: 0\nrank {p}: " + "9" * 5000
    with pytest.raises(ParseError) as e:
        parse_ranking(text)
    assert (e.value.line, e.value.col) == (5, len("rank {p}: ") + 1)
    assert "integer too long" in e.value.message


def test_parse_ranking_ranks_are_ascii_digits():
    text = "ranking r\nfluents p\nbase { {} }\nrank {}: 0\nrank {p}: \u0661\n"
    with pytest.raises(ParseError) as e:
        parse_ranking(text)
    assert (e.value.message, e.value.line, e.value.col) == (
        "expected an integer", 5, len("rank {p}: ") + 1
    )


def test_parse_ranking_value_errors():
    with pytest.raises(ParseError):
        parse_ranking("ranking r\nfluents p\nbase { {} }\nrank {}: -1\n")
    with pytest.raises(ParseError):
        parse_ranking(
            "ranking r\nfluents p\nbase { {} }\nrank {}: 0\nrank {}: 1\n"
        )
    with pytest.raises(ParseError):
        parse_ranking("ranking r\nbase { {} }\n")
    with pytest.raises(ParseError):
        parse_ranking("ranking r\nfluents p\nbase { }\n")


def test_serialize_ranking_round_trip():
    doc = parse_ranking((DATA / "litmus.bevr").read_text())
    canonical = serialize_ranking(doc)
    again = parse_ranking(canonical)
    assert again == doc
    assert serialize_ranking(again) == canonical


def test_signature_without_fluents_round_trips():
    sig = make_signature((), ("a",))
    doc = DomainDoc("d", sig, complete_transitions(sig, ()))
    assert parse_domain(serialize_domain(doc)) == doc
    ranking = RankingDoc("r", make_signature(()), Ranking((0b1,)))
    canonical = serialize_ranking(ranking)
    assert canonical == "ranking r\nfluents \nbase { {} }\nrank {}: 0\n"
    assert parse_ranking(canonical) == ranking
    with pytest.raises(ParseError, match="missing 'fluents' directive"):
        parse_domain("domain d\nactions a\n")
    with pytest.raises(ParseError, match="'fluents' must come before 'base'"):
        parse_ranking("ranking r\nbase { {} }\n")


def test_ranking_assignment_guards_base():
    doc = parse_ranking((DATA / "litmus.bevr").read_text())
    assign = ranking_assignment(doc)
    assert assign(frozenset((0, 4))) is doc.ranking
    with pytest.raises(ValueError):
        assign(frozenset((0,)))


# ---------------------------------------------------------------------------
# Results.


def _litmus_red_result(litmus):
    sig = litmus.signature
    kappa = frozenset((state_of(sig), state_of(sig, "Acid")))
    red = frozenset(s for s in range(8) if s & state_of(sig, "Red"))
    return evolve(kappa, WorldView(("dip",), (red,)), litmus.ts)


def test_serialize_result_text_consistent(litmus):
    res = _litmus_red_result(litmus)
    text = serialize_result(res, litmus.signature)
    assert text == "k0 = { {Acid} }\nk1 = { {Red,Acid} }\n"


def test_serialize_result_text_plain_trajectory(litmus):
    sig = litmus.signature
    traj = (frozenset((0,)), frozenset((2,)))
    assert serialize_result(traj, sig) == "k0 = { {} }\nk1 = { {Blue} }\n"


def test_serialize_result_text_repairs(litmus):
    sig = litmus.signature
    acid = frozenset(s for s in range(8) if s & state_of(sig, "Acid"))
    view = WorldView(("noop", "noop"), (acid, universe(sig) - acid))
    kappa = frozenset((state_of(sig), state_of(sig, "Acid")))
    from bevo import constant

    res = evolve(kappa, view, litmus.ts, r=constant)
    text = serialize_result(res, sig)
    blocks = text.rstrip("\n").split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].startswith("repair 1: ")
    assert " ; " in blocks[0].splitlines()[0]
    assert blocks[0].splitlines()[1:] == [
        "k0 = { {} }",
        "k1 = { {} }",
        "k2 = { {} }",
    ]
    assert blocks[1].splitlines()[1:] == [
        "k0 = { {Acid} }",
        "k1 = { {Acid} }",
        "k2 = { {Acid} }",
    ]


def test_serialize_result_machine_document(litmus):
    res = _litmus_red_result(litmus)
    out = serialize_result(res, litmus.signature, "machine", "litmus_dip")
    doc = json.loads(out)
    assert doc["scenario"] == "litmus_dip"
    assert doc["signature"] == {
        "fluents": ["Red", "Blue", "Acid"],
        "actions": ["dip"],
    }
    assert doc["consistent"] is True
    assert doc["trajectories"] == [[[["Acid"]], [["Red", "Acid"]]]]
    # byte-stable across calls
    assert out == serialize_result(res, litmus.signature, "machine", "litmus_dip")


def test_serialize_result_unknown_format(litmus):
    with pytest.raises(ValueError):
        serialize_result((frozenset((0,)),), litmus.signature, "yaml")


def test_result_from_json_round_trip(litmus):
    res = _litmus_red_result(litmus)
    out = serialize_result(res, litmus.signature, "machine")
    sig2, res2 = result_from_json(out)
    assert sig2 == litmus.signature
    assert res2 == res


def test_result_from_json_round_trip_with_shared_observations(litmus):
    # Both repairs of Acid ; !Acid ; {} or Acid keep the third observation,
    # so its states list is one object met twice in the document.
    sig = litmus.signature
    acid = frozenset(s for s in range(8) if s & state_of(sig, "Acid"))
    view = WorldView(("noop",) * 3, (acid, universe(sig) - acid, acid | {0}))
    kappa = frozenset((state_of(sig), state_of(sig, "Acid")))
    res = evolve(kappa, view, litmus.ts, r=constant)
    assert [obs[2] for obs in res.repaired_views] == [acid | {0}] * 2
    doc = result_to_data(res, sig)
    assert doc["repairs"][0][2] is doc["repairs"][1][2]
    assert result_from_json(serialize_result(res, sig, "machine")) == (sig, res)


def test_result_from_json_plain_trajectory(litmus):
    traj = (frozenset((0,)), frozenset((2,)))
    out = serialize_result(traj, litmus.signature, "machine")
    doc = json.loads(out)
    assert doc["consistent"] is None
    assert doc["repairs"] is None
    sig2, res2 = result_from_json(out)
    assert res2 == traj
    assert isinstance(res2, tuple)


def _drop(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]

    return edit


def _put(value, *path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop("signature"), "missing field signature"),
        (_put([], "signature"), "field signature must be an object"),
        (_drop("signature", "fluents"), "missing field signature.fluents"),
        (_put("Red", "signature", "fluents"), "field signature.fluents must be a list"),
        (_put([3], "signature", "fluents"), "fluent name must be a non-empty string"),
        (_drop("signature", "actions"), "missing field signature.actions"),
        (_put(None, "signature", "actions"), "field signature.actions must be a list"),
        (_drop("trajectories"), "missing field trajectories"),
        (_put({}, "trajectories"), "field trajectories must be a list"),
        (_put([5], "trajectories"), "field trajectories must hold lists"),
        (_put([[["Red"]]], "trajectories"), "field trajectories must hold lists"),
        (_put([[[["Purple"]]]], "trajectories"), "unknown fluent 'Purple'"),
        (_drop("consistent"), "missing field consistent"),
        (_put("yes", "consistent"), "field consistent must be true, false or null"),
        (
            lambda doc: doc.update(consistent=None, trajectories=doc["trajectories"] * 2),
            "a plain trajectory needs exactly one entry in trajectories",
        ),
        (_drop("repairs"), "missing field repairs"),
        (_put(3, "repairs"), "field repairs must be a list"),
        (_put([[[["Blue", 7]]]], "repairs"), "unknown fluent 7"),
    ],
)
def test_result_from_json_malformed(litmus, edit, message):
    res = _litmus_red_result(litmus)
    doc = json.loads(serialize_result(res, litmus.signature, "machine"))
    edit(doc)
    with pytest.raises(ValueError, match=message):
        result_from_json(json.dumps(doc))


def test_result_from_json_not_an_object():
    with pytest.raises(ValueError, match="the document must be an object"):
        result_from_json("[1, 2]")


@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_result_from_json_too_deep_is_a_value_error(opener):
    # json.loads raises RecursionError here, which is no ValueError.
    with pytest.raises(ValueError, match="result document: nested too deeply"):
        result_from_json(opener * 100_000)


# ---------------------------------------------------------------------------
# Bundled files and fuzz.


@pytest.mark.parametrize(
    "name", ["litmus.bevd", "litmus-extended.bevd"]
)
def test_bundled_domains_round_trip(name):
    doc = parse_domain((DATA / name).read_text())
    canonical = serialize_domain(doc)
    assert parse_domain(canonical) == doc


@pytest.mark.parametrize(
    "domain,name",
    [
        ("litmus.bevd", "litmus.bevs"),
        ("litmus-extended.bevd", "litmus-extended.bevs"),
        ("litmus.bevd", "litmus-conflict.bevs"),
    ],
)
def test_bundled_scenarios_round_trip(domain, name):
    dom = parse_domain((DATA / domain).read_text())
    doc = parse_scenario((DATA / name).read_text(), dom)
    canonical = serialize_scenario(doc, dom.signature)
    assert parse_scenario(canonical, dom) == doc


@given(st.text(alphabet="dompfluentsacir {}(),:->!&|#\n0123456789", max_size=120))
def test_parse_domain_total_over_garbage(text):
    try:
        parse_domain(text)
    except ParseError as e:
        assert e.line >= 1
        assert e.col >= 1


@given(st.text(alphabet="scenaril obsfmt {}(),:->!&|#\nqp0123456789", max_size=120))
def test_parse_scenario_total_over_garbage(dom, text):
    try:
        parse_scenario(text, dom)
    except ParseError as e:
        assert e.line >= 1
        assert e.col >= 1
