from itertools import product

import pytest
import hypothesis.strategies as st
from hypothesis import given

from bevo import (
    NULL_ACTION,
    complete_transitions,
    make_signature,
    successor,
    universe,
    update,
    update_seq,
)

from bevo.kernel import _image, _members

from conftest import state_of

_SIG = make_signature(("p", "q"), ("a",))

# Random two-fluent systems, possibly nondeterministic.
_systems = st.lists(
    st.tuples(st.integers(0, 3), st.just("a"), st.integers(0, 3)),
    max_size=8,
).map(lambda triples: complete_transitions(_SIG, triples))

_state_sets = st.sets(st.integers(0, 3)).map(frozenset)


def test_litmus_update_golden(litmus):
    """Dipping from the two-state initial beliefs gives the two outcomes."""
    sig = litmus.signature
    kappa = frozenset((state_of(sig), state_of(sig, "Acid")))
    out = update(kappa, "dip", litmus.ts)
    assert out == frozenset(
        (state_of(sig, "Blue"), state_of(sig, "Red", "Acid"))
    )


def test_update_empty_belief(litmus):
    assert update(frozenset(), "dip", litmus.ts) == frozenset()


@pytest.mark.parametrize("kappa", [frozenset(), frozenset((0, 5))], ids=["empty", "two"])
def test_update_rejects_unknown_action_for_any_belief(litmus, kappa):
    with pytest.raises(ValueError, match=r"^unknown action 'pour'$"):
        update(kappa, "pour", litmus.ts)
    with pytest.raises(ValueError, match=r"^unknown action 'pour'$"):
        update_seq(kappa, ("dip", "pour"), litmus.ts)


@pytest.mark.parametrize("bad", [8, -1])
def test_update_rejects_out_of_range_states(litmus, bad):
    message = rf"^state index {bad} out of range$"
    with pytest.raises(ValueError, match=message):
        update(frozenset((0, bad)), "dip", litmus.ts)
    with pytest.raises(ValueError, match=message):
        update_seq(frozenset((bad,)), ("dip",), litmus.ts)


def test_update_noop_is_identity(litmus):
    kappa = frozenset((0, 3, 5))
    assert update(kappa, NULL_ACTION, litmus.ts) == kappa


def test_update_seq_empty_is_identity(litmus):
    kappa = frozenset((1, 2))
    assert update_seq(kappa, (), litmus.ts) == kappa


def test_update_seq_folds_left(litmus):
    sig = litmus.signature
    kappa = frozenset((state_of(sig, "Acid"),))
    twice = update_seq(kappa, ("dip", "dip"), litmus.ts)
    once = update(update(kappa, "dip", litmus.ts), "dip", litmus.ts)
    assert twice == once == frozenset((state_of(sig, "Red", "Acid"),))


def test_successor_single_state_walk(litmus):
    sig = litmus.signature
    assert successor(state_of(sig), ("dip",), litmus.ts) == frozenset(
        (state_of(sig, "Blue"),)
    )
    assert successor(state_of(sig, "Red"), ("dip", "dip"), litmus.ts) == frozenset(
        (state_of(sig, "Red"),)
    )


def test_successor_unions_nondeterministic_branches(tiny_sig):
    nondet = complete_transitions(tiny_sig, [(0, "a", 1), (0, "a", 2)])
    assert successor(0, ("a",), nondet) == frozenset((1, 2))


def test_nondeterministic_update_unions_branches(tiny_sig):
    ts = complete_transitions(tiny_sig, [(0, "a", 1), (0, "a", 2)])
    assert update(frozenset((0,)), "a", ts) == frozenset((1, 2))
    assert update(frozenset((0, 3)), "a", ts) == frozenset((1, 2, 3))


@given(_systems, _state_sets, _state_sets)
def test_update_distributes_over_union(ts, k1, k2):
    assert update(k1 | k2, "a", ts) == update(k1, "a", ts) | update(k2, "a", ts)


@given(_systems, _state_sets)
def test_update_monotone(ts, kappa):
    whole = update(universe(_SIG), "a", ts)
    assert update(kappa, "a", ts) <= whole


@given(_systems, _state_sets)
def test_update_nonempty_preserved(ts, kappa):
    # totality: every state has at least one successor
    if kappa:
        assert update(kappa, "a", ts)


@given(_systems)
def test_deterministic_updates_are_functions(ts):
    if ts.deterministic:
        for s in range(4):
            assert len(update(frozenset((s,)), "a", ts)) == 1


def test_image_matches_update_on_every_two_fluent_system():
    for succ in product(range(4), repeat=4):
        ts = complete_transitions(_SIG, [(s, "a", d) for s, d in enumerate(succ)])
        for mask in range(16):
            assert _members(_image(mask, succ)) == update(_members(mask), "a", ts)


@st.composite
def _functions_and_masks(draw):
    """A successor function over 1 to 8 fluents and a mask of its states."""
    n = draw(st.integers(1, 8))
    succ = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
    return n, tuple(succ), draw(st.integers(0, (1 << (1 << n)) - 1))


@given(_functions_and_masks())
def test_image_matches_update(case):
    n, succ, mask = case
    sig = make_signature([f"f{k}" for k in range(n)], ("a",))
    ts = complete_transitions(sig, [(s, "a", d) for s, d in enumerate(succ)])
    assert _members(_image(mask, succ)) == update(_members(mask), "a", ts)
