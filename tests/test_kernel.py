import pytest
import hypothesis.strategies as st
from hypothesis import given

from bevo import (
    NULL_ACTION,
    And,
    Atom,
    Iff,
    Implies,
    Not,
    Or,
    TransitionSystem,
    complete_transitions,
    format_state,
    format_state_set,
    make_signature,
    models,
    state_index,
    true_fluents,
    universe,
)
from bevo.kernel import states_data

from conftest import state_of


def test_signature_injects_noop():
    sig = make_signature(("p",), ("a", "b"))
    assert NULL_ACTION in sig.actions
    assert sig.actions.index("a") < sig.actions.index("b")


def test_signature_noop_not_duplicated():
    sig = make_signature(("p",), ("a", NULL_ACTION))
    assert sig.actions.count(NULL_ACTION) == 1
    # The file formats leave noop implicit, so it always comes last.
    assert make_signature(("p",), (NULL_ACTION, "a")).actions == ("a", NULL_ACTION)


def test_signature_num_states():
    assert make_signature(("p", "q", "r")).num_states == 8
    assert make_signature(()).num_states == 1


def test_signature_rejects_bad_names():
    with pytest.raises(ValueError):
        make_signature(("p", "p"))
    with pytest.raises(ValueError):
        make_signature(("has space",))
    with pytest.raises(ValueError):
        make_signature(("",))
    with pytest.raises(ValueError):
        make_signature([f"f{i}" for i in range(17)])
    # Names follow the rule of the file formats, in the library too.
    assert make_signature(("_p", "Q2"), ("go_1",)).fluents == ("_p", "Q2")
    for bad in ("a-b", "2p", "caf\u00e9", "p q", "p\n"):
        with pytest.raises(ValueError, match=r"^fluent name must match "):
            make_signature((bad,))
        with pytest.raises(ValueError, match=r"^action name must match "):
            make_signature(("p",), (bad,))
    with pytest.raises(ValueError, match="fluent name must be a non-empty string"):
        make_signature((3,))


def test_state_index_round_trip():
    sig = make_signature(("Red", "Blue", "Acid"))
    s = state_index(sig, ("Red", "Acid"))
    assert s == 0b101
    assert true_fluents(sig, s) == ("Red", "Acid")


def test_state_index_rejects_unknown():
    sig = make_signature(("p",))
    with pytest.raises(ValueError):
        state_index(sig, ("q",))


def test_format_state():
    sig = make_signature(("Red", "Blue", "Acid"))
    assert format_state(sig, 0) == "{}"
    assert format_state(sig, 0b101) == "{Red,Acid}"


def test_format_state_set():
    sig = make_signature(("Red", "Blue", "Acid"))
    assert format_state_set(sig, frozenset()) == "{ }"
    assert format_state_set(sig, frozenset((4, 0))) == "{ {}, {Acid} }"


def test_universe():
    sig = make_signature(("p", "q"))
    assert universe(sig) == frozenset(range(4))
    assert universe(make_signature(())) == frozenset((0,))


def test_derived_signature_values_leave_equality_alone():
    sig, same = make_signature(("p", "q")), make_signature(("p", "q"))
    assert universe(sig) is universe(sig)
    assert format_state_set(sig, universe(sig)) == "{ {}, {p}, {q}, {p,q} }"
    assert sig == same and hash(sig) == hash(same)
    assert repr(sig) == repr(same)


def test_rendering_rejects_out_of_range_states():
    sig = make_signature(("p",))
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=f"state index {bad} out of range"):
            format_state_set(sig, (0, bad))
        with pytest.raises(ValueError, match=f"state index {bad} out of range"):
            states_data(sig, (bad, 1))
        with pytest.raises(ValueError):
            true_fluents(sig, bad)


# Independent oracle: evaluate a formula state by state from a name->bool
# assignment, with no set algebra involved.
def _holds(f, assignment):
    if isinstance(f, Atom):
        return assignment[f.name]
    if isinstance(f, Not):
        return not _holds(f.arg, assignment)
    if isinstance(f, And):
        return _holds(f.left, assignment) and _holds(f.right, assignment)
    if isinstance(f, Or):
        return _holds(f.left, assignment) or _holds(f.right, assignment)
    if isinstance(f, Implies):
        return (not _holds(f.left, assignment)) or _holds(f.right, assignment)
    if isinstance(f, Iff):
        return _holds(f.left, assignment) == _holds(f.right, assignment)
    raise TypeError(f)


_SIG3 = make_signature(("p", "q", "r"))

_formulas = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), Atom("r")]),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
        st.tuples(sub, sub).map(lambda t: Iff(*t)),
    ),
    max_leaves=12,
)


@given(_formulas)
def test_models_matches_truth_table(f):
    expected = frozenset(
        s
        for s in range(8)
        if _holds(f, {n: bool(s >> i & 1) for i, n in enumerate(_SIG3.fluents)})
    )
    assert models(f, _SIG3) == expected


def test_models_of_deep_formulas():
    # Built directly, not parsed, so no parser depth bound applies.
    chain = Atom("p")
    for _ in range(5000):
        chain = And(chain, Atom("q"))
    assert models(chain, _SIG3) == frozenset((3, 7))
    nots = Atom("r")
    for _ in range(5001):
        nots = Not(nots)
    assert models(nots, _SIG3) == frozenset(range(4))
    arrows = Atom("p")
    for _ in range(3000):
        arrows = Implies(Atom("q"), arrows)
    assert models(arrows, _SIG3) == frozenset(s for s in range(8) if s & 1 or not s & 2)


@given(_formulas)
def test_formula_repr_evaluates_back_to_the_formula(f):
    assert eval(repr(f)) == f


def test_formula_repr_is_the_dataclass_form():
    f = And(Atom("p"), Not(Atom("q")))
    assert repr(f) == "And(left=Atom(name='p'), right=Not(arg=Atom(name='q')))"
    f = Iff(Implies(Atom("it's"), Or(Atom("p"), Atom("q"))), Atom("r"))
    assert repr(f) == (
        "Iff(left=Implies(left=Atom(name=\"it's\"), right=Or(left=Atom(name='p'), "
        "right=Atom(name='q'))), right=Atom(name='r'))"
    )


def test_repr_of_deep_formulas():
    # Built directly, as the parser caps formulas at 100 levels.
    nots, chain = Atom("p"), Atom("p")
    for _ in range(10000):
        nots, chain = Not(nots), And(chain, Atom("q"))
    try:
        got = repr(nots), repr(chain)
    except RecursionError:
        # Fail outside the handler: a traceback through deep frames would
        # compare their deep formulas frame by frame, for minutes.
        got = None
    assert got is not None, "repr recursed"
    assert got[0] == "Not(arg=" * 10000 + "Atom(name='p')" + ")" * 10000
    assert got[1].startswith("And(left=" * 10000 + "Atom(name='p'), right=Atom(name='q'))")


def test_models_unknown_fluent():
    with pytest.raises(ValueError):
        models(Atom("zzz"), _SIG3)


def test_complete_transitions_adds_self_loops(tiny_sig):
    ts = complete_transitions(tiny_sig, [(0, "a", 3)])
    assert ts.successors(0, "a") == frozenset((3,))
    for s in (1, 2, 3):
        assert ts.successors(s, "a") == frozenset((s,))
    for s in range(4):
        assert ts.successors(s, NULL_ACTION) == frozenset((s,))


def test_complete_transitions_rejects_noop_rows(tiny_sig):
    with pytest.raises(ValueError):
        complete_transitions(tiny_sig, [(0, NULL_ACTION, 1)])
    # identity noop rows are tolerated
    ts = complete_transitions(tiny_sig, [(0, NULL_ACTION, 0)])
    assert ts.successors(0, NULL_ACTION) == frozenset((0,))


def test_complete_transitions_rejects_out_of_range(tiny_sig):
    with pytest.raises(ValueError):
        complete_transitions(tiny_sig, [(0, "a", 4)])
    with pytest.raises(ValueError):
        complete_transitions(tiny_sig, [(7, "a", 0)])
    with pytest.raises(ValueError):
        complete_transitions(tiny_sig, [(0, "b", 0)])


def test_transition_system_requires_totality(tiny_sig):
    rel = frozenset({(s, NULL_ACTION, s) for s in range(4)} | {(0, "a", 1)})
    with pytest.raises(ValueError) as err:
        TransitionSystem(tiny_sig, rel)
    assert str(err.value) == (
        "no successor for state 1 under action 'a'; "
        "use complete_transitions to fill in self-loops"
    )


def test_deterministic_flag(tiny_sig):
    det = complete_transitions(tiny_sig, [(0, "a", 1)])
    assert det.deterministic
    nondet = complete_transitions(tiny_sig, [(0, "a", 1), (0, "a", 2)])
    assert not nondet.deterministic
    assert nondet.successors(0, "a") == frozenset((1, 2))


def test_successor_map_only_when_deterministic(tiny_sig):
    det = complete_transitions(tiny_sig, [(0, "a", 1)])
    assert det.successor_map("a") == (1, 1, 2, 3)
    nondet = complete_transitions(tiny_sig, [(0, "a", 1), (0, "a", 2)])
    with pytest.raises(ValueError):
        nondet.successor_map("a")


_BAD_TRIPLES = [
    ((0, "b", 0), "unknown action 'b' in transition"),
    ((0, "a", 4), "transition (0, 'a', 4) out of range"),
    ((-1, "a", 0), "transition (-1, 'a', 0) out of range"),
    ((0, NULL_ACTION, 1), "the noop action must be the identity, got (0, 1)"),
    ((0, NULL_ACTION, 4), "transition (0, 'noop', 4) out of range"),
    ((0, "zz", 9), "unknown action 'zz' in transition"),
]


@pytest.mark.parametrize("triple, message", _BAD_TRIPLES)
def test_both_constructors_reject_a_bad_triple_alike(tiny_sig, triple, message):
    total = {(s, a, s) for a in tiny_sig.actions for s in range(4)}
    for build, rel in ((TransitionSystem, total | {triple}), (complete_transitions, [triple])):
        with pytest.raises(ValueError) as e:
            build(tiny_sig, rel)
        assert str(e.value) == message


def test_successors_unknown_action(tiny_sig):
    ts = complete_transitions(tiny_sig, ())
    with pytest.raises(ValueError):
        ts.successors(0, "zzz")


@pytest.mark.parametrize("state", [-1, 4])
def test_successors_rejects_a_state_out_of_range(tiny_sig, state):
    ts = complete_transitions(tiny_sig, ())
    with pytest.raises(ValueError, match=f"^state index {state} out of range$"):
        ts.successors(state, "a")


def test_models_rejects_a_non_formula(tiny_sig):
    with pytest.raises(TypeError, match=r"^not a formula: 'p'$"):
        models("p", tiny_sig)
    with pytest.raises(TypeError, match=r"^not a formula: None$"):
        models(Not(And(Atom("p"), None)), tiny_sig)


def test_litmus_fixture_shape(litmus):
    sig = litmus.signature
    assert sig.fluents == ("Red", "Blue", "Acid")
    assert litmus.ts.deterministic
    assert litmus.ts.successors(state_of(sig), "dip") == frozenset(
        (state_of(sig, "Blue"),)
    )
    assert litmus.ts.successors(state_of(sig, "Acid"), "dip") == frozenset(
        (state_of(sig, "Red", "Acid"),)
    )
