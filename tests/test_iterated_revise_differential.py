"""``iterated_revise`` against evolution over the identity system.

``iterated_revise`` revises by the core of each repair's kept observations
instead of evolving through one noop step per observation.  The reference
here is ``evolve`` over the identity system ``complete_transitions(sig, ())``,
taking the set of final belief states: one state must come back as the
result, several as the ambiguity error, and any error as the same error.
Exhaustive at 2 fluents, sampled at 3, 4 and 8.
"""

from functools import lru_cache
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bevo import (
    NULL_ACTION,
    Ranking,
    Signature,
    WorldView,
    complete_transitions,
    constant,
    dalal_assignment,
    evolve,
    fixed_weights,
    iterated_revise,
    make_signature,
    recency,
    revise,
)
from bevo.postulates import state_sets, suite_signature

_AMBIGUOUS = (
    "iterated revision is ambiguous under this reliability function; "
    "use evolve for the full set of outcomes"
)


def _primacy(n):
    return tuple(range(n))


@lru_cache(maxsize=None)
def _identity_system(sig):
    return complete_transitions(sig, ())


def _reference(kappa, seq, sig, assign=None, r=recency):
    view = WorldView((NULL_ACTION,) * len(seq), tuple(frozenset(o) for o in seq))
    try:
        result = evolve(kappa, view, _identity_system(sig), assign, r)
    except ValueError as e:
        return ("error", str(e))
    finals = {t[-1] for t in result.trajectories}
    return finals.pop() if len(finals) == 1 else ("error", _AMBIGUOUS)


def _outcome(kappa, seq, sig, assign=None, r=recency):
    try:
        return iterated_revise(kappa, seq, sig, assign, r)
    except ValueError as e:
        return ("error", str(e))


def _agree_on_every_sequence(sig, length, r):
    sets = state_sets(sig)
    for seq in product(sets, repeat=length):
        for kappa in sets[1:]:
            want = _reference(kappa, seq, sig, r=r)
            assert _outcome(kappa, seq, sig, r=r) == want, (kappa, seq)


@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("r", [recency, _primacy], ids=["recency", "primacy"])
def test_exhaustive_two_fluents_injective_orders(r, length):
    _agree_on_every_sequence(suite_signature(2, with_action=False), length, r)


# One level per position, all tied from length 2 on: the fallback's orders.
_TIED = {1: fixed_weights((3,)), 2: fixed_weights((1, 1))}


@pytest.mark.parametrize("length", [1, 2])
@pytest.mark.parametrize("order", ["constant", "tied"])
def test_exhaustive_two_fluents_tied_orders(order, length):
    r = constant if order == "constant" else _TIED[length]
    _agree_on_every_sequence(suite_signature(2, with_action=False), length, r)


def test_tied_orders_reach_the_ambiguity_error():
    sig = suite_signature(2, with_action=False)
    seq = (frozenset({0}), frozenset({3}))
    for r in (constant, _TIED[2]):
        assert _outcome(frozenset({1, 2}), seq, sig, r=r) == ("error", _AMBIGUOUS)


def test_tied_orders_name_the_unranked_state_of_the_first_repair():
    """Both repairs meet states the ranking leaves out: the one ``repairs``
    lists first, keeping {3}, names its state, as evolution does."""
    sig = suite_signature(2, with_action=False)
    seq = (frozenset({1, 2}), frozenset({3}))
    partial = Ranking((4, 0))
    got = _outcome(frozenset({0}), seq, sig, lambda kappa: partial, constant)
    assert got == _reference(frozenset({0}), seq, sig, lambda kappa: partial, constant)
    assert got == ("error", "state index 3 out of range")


@st.composite
def _cases(draw):
    n = draw(st.sampled_from([3, 4, 8]))
    sig = make_signature(tuple(f"f{k}" for k in range(n)), ())
    full = frozenset(range(sig.num_states))
    states = st.frozensets(st.integers(0, sig.num_states - 1))
    kappa = draw(states.filter(bool))
    seq = draw(st.lists(st.one_of(states, st.just(full)), min_size=1, max_size=4))
    # The complement of an earlier observation clashes with it; at 8 fluents
    # it takes the wide mask encoding, past 64 states.
    for j in range(1, len(seq)):
        if draw(st.booleans()):
            seq[j] = full - seq[draw(st.integers(0, j - 1))]
    order = draw(st.sampled_from(["recency", "primacy", "constant", "weights"]))
    if order == "weights":
        r = fixed_weights(draw(st.lists(st.integers(0, 2), min_size=len(seq), max_size=len(seq))))
    else:
        r = {"recency": recency, "primacy": _primacy, "constant": constant}[order]
    every = (1 << sig.num_states) - 1
    flat = Ranking((every,))
    # Two strata that may leave states unranked, so both sides raise.
    low = draw(st.integers(0, every))
    partial = Ranking((low, draw(st.integers(0, every)) & ~low))
    assign = draw(st.sampled_from([None, lambda kappa: flat, lambda kappa: partial]))
    return kappa, tuple(seq), sig, assign, r


@settings(max_examples=400, deadline=None)
@given(_cases())
def test_sampled_three_four_and_eight_fluents(case):
    assert _outcome(*case) == _reference(*case)


def test_empty_kappa_is_rejected_first():
    sig = suite_signature(2, with_action=False)
    clash = (frozenset({0}), frozenset({3}))
    for r in (recency, constant, fixed_weights((0,))):
        got = _outcome(frozenset(), clash, sig, r=r)
        assert got == _reference(frozenset(), clash, sig, r=r)
        assert got == ("error", "cannot evolve an empty belief state")


def test_wrong_length_weights_are_read_only_on_conflict():
    sig = suite_signature(2, with_action=False)
    r = fixed_weights((0,))
    kappa = frozenset({0})
    agree = (frozenset({1, 2}), frozenset({2, 3}))
    want = revise(kappa, frozenset({2}), dalal_assignment(sig))
    assert iterated_revise(kappa, agree, sig, r=r) == want
    assert _outcome(kappa, agree, sig, r=r) == _reference(kappa, agree, sig, r=r)
    clash = (frozenset({1}), frozenset({2}))
    got = _outcome(kappa, clash, sig, r=r)
    assert got == _reference(kappa, clash, sig, r=r)
    assert got == ("error", "reliability weights cover 1 positions, trajectory has 2")


@pytest.mark.parametrize("r", [recency, _primacy, constant], ids=["recency", "primacy", "constant"])
def test_out_of_range_states_in_an_observation_are_ignored(r):
    sig = suite_signature(2, with_action=False)
    kappa = frozenset({0})
    padded_full = frozenset({0, 1, 2, 3, 9})  # not the universe, yet no constraint
    for seq in [
        (frozenset({3, 7}),),
        (frozenset({-1, 3}), frozenset({2, 4})),
        (padded_full, frozenset({1}), frozenset({2})),
        (frozenset({8}), frozenset({1, 2})),
    ]:
        assert _outcome(kappa, seq, sig, r=r) == _reference(kappa, seq, sig, r=r), seq


def test_other_errors_match_evolution():
    sig = suite_signature(2, with_action=False)
    kappa = frozenset({0})
    with pytest.raises(ValueError, match="need at least one observation"):
        iterated_revise(kappa, (), sig)
    # A hand-built signature without the noop action has no identity step.
    bare = Signature(("p",), ("a",))
    for seq in [(frozenset({1}),), (frozenset({0}), frozenset({1}))]:
        got = _outcome(kappa, seq, bare)
        assert got == _reference(kappa, seq, bare)
        assert got == ("error", "unknown action 'noop'")
