import itertools

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from bevo import (
    Ranking,
    combined_change,
    complete_transitions,
    dalal_assignment,
    dalal_ranking,
    make_signature,
    revise,
    shift_ranking,
    update,
)

from bevo.kernel import _mask, _members
from bevo.revision import _least
from conftest import state_of

_SIG = make_signature(("p", "q"))
_nonempty = st.sets(st.integers(0, 3), min_size=1).map(frozenset)
_any_set = st.sets(st.integers(0, 3)).map(frozenset)


def test_dalal_ranking_golden():
    """Hamming distances from the all-false state."""
    r = dalal_ranking(frozenset((0,)), _SIG)
    assert r.strata == (0b0001, 0b0110, 0b1000)
    assert [r.rank_of(s) for s in range(4)] == [0, 1, 1, 2]
    assert r.base == frozenset((0,))


def test_dalal_ranking_two_member_base():
    r = dalal_ranking(frozenset((0, 3)), _SIG)
    assert r.strata == (0b1001, 0b0110)


def test_dalal_ranking_empty_base():
    with pytest.raises(ValueError):
        dalal_ranking(frozenset(), _SIG)


@given(_nonempty)
def test_dalal_is_faithful(kappa):
    """The base is the first stratum; the strata are non-empty, disjoint and
    cover every state."""
    r = dalal_ranking(kappa, _SIG)
    assert r.base == kappa
    assert all(r.strata)
    assert sorted(s for m in r.strata for s in range(4) if m >> s & 1) == [0, 1, 2, 3]
    assert r.domain == frozenset(range(4))


def test_rank_of_bounds():
    r = dalal_ranking(frozenset((0,)), _SIG)
    assert r.rank_of(3) == 2
    assert r.rank_of(4) is None


@pytest.mark.parametrize("bad", [-1, 4])
def test_state_index_out_of_range(tiny_sig, bad):
    ts = complete_transitions(tiny_sig, [(0, "a", 1)])
    dalal = dalal_assignment(_SIG)
    calls = [
        lambda: dalal_ranking(frozenset((0, bad)), _SIG),
        lambda: revise(frozenset((bad,)), frozenset((1,)), dalal),
        lambda: revise(frozenset((0,)), frozenset((bad,)), dalal),
        lambda: revise(frozenset((0,)), frozenset((1, bad)), dalal),
        lambda: combined_change(frozenset((bad,)), "a", frozenset((1,)), ts),
        lambda: combined_change(frozenset((0,)), "a", frozenset((bad,)), ts),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^state index {bad} out of range$"):
            call()


def _partial(kappa):
    """Ranks states 0 and 2 only, whatever kappa is."""
    return Ranking((0b0001, 0b0100))


@pytest.mark.parametrize(
    "alpha, bad",
    [({1}, 1), ({3}, 3), ({1, 3}, 1), ({2, 3}, 3), ({1, 9}, 1), ({-2, 1}, -2), ({2, 2**40}, 2**40)],
)
def test_revise_rejects_an_unranked_state(alpha, bad):
    # The lowest state of alpha that the ranking leaves unranked is named,
    # and a huge index is rejected before any mask is built for it.
    with pytest.raises(ValueError, match=f"^state index {bad} out of range$"):
        revise(frozenset((0,)), frozenset(alpha), _partial)


def test_revise_by_ranked_states_of_a_partial_ranking():
    assert revise(frozenset((0,)), frozenset((0, 2)), _partial) == frozenset((0,))
    assert revise(frozenset((0,)), frozenset((2,)), _partial) == frozenset((2,))


def test_ranked_mask_leaves_equality_alone():
    a, b = Ranking((0b01, 0b10)), Ranking((0b01, 0b10))
    assert a._graded == 0b11 and a.domain == frozenset((0, 1))
    assert (a == b, hash(a) == hash(b), repr(a) == repr(b)) == (True, True, True)


def test_revise_consistent_is_intersection():
    kappa = frozenset((0, 1))
    alpha = frozenset((1, 2))
    assert revise(kappa, alpha, dalal_assignment(_SIG)) == frozenset((1,))


def test_revise_inconsistent_picks_closest():
    kappa = frozenset((0,))
    alpha = frozenset((1, 3))
    # distance 1 to {p}, distance 2 to {p,q}
    assert revise(kappa, alpha, dalal_assignment(_SIG)) == frozenset((1,))


def test_revise_litmus_golden(litmus):
    """After dipping, observing red leaves only the acid outcome."""
    sig = litmus.signature
    after = frozenset((state_of(sig, "Blue"), state_of(sig, "Red", "Acid")))
    red = frozenset(s for s in range(8) if s & state_of(sig, "Red"))
    out = revise(after, red, dalal_assignment(sig))
    assert out == frozenset((state_of(sig, "Red", "Acid"),))


def test_revise_empty_observation():
    assert revise(frozenset((0,)), frozenset(), dalal_assignment(_SIG)) == frozenset()


def test_revise_empty_belief_state():
    with pytest.raises(ValueError):
        revise(frozenset(), frozenset((0,)), dalal_assignment(_SIG))


def test_combined_change_empty_belief_state():
    sig1 = make_signature(("p",), ("a",))
    ts = complete_transitions(sig1, [(0, "a", 1)])
    with pytest.raises(ValueError, match="^cannot change an empty belief state$"):
        combined_change(frozenset(), "a", frozenset((1,)), ts)


@given(_nonempty, _any_set)
def test_revise_stays_inside_observation(kappa, alpha):
    out = revise(kappa, alpha, dalal_assignment(_SIG))
    assert out <= alpha
    assert bool(out) == bool(alpha)


@given(_nonempty, _any_set)
def test_revise_compatible_intersects(kappa, alpha):
    if kappa & alpha:
        assert revise(kappa, alpha, dalal_assignment(_SIG)) == kappa & alpha


def test_shift_ranking_leaves_unreachable_states_unranked():
    sig1 = make_signature(("p",), ("a",))
    ts = complete_transitions(sig1, [(0, "a", 1)])
    shifted = shift_ranking(dalal_ranking(frozenset((0,)), sig1), "a", ts)
    # state 0 is unreachable through 'a', so it has no shifted rank
    assert shifted.rank_of(0) is None
    assert shifted.domain == frozenset((1,))


def test_shift_ranking_golden():
    sig1 = make_signature(("p",), ("a",))
    ts = complete_transitions(sig1, [(0, "a", 1)])
    shifted = shift_ranking(dalal_ranking(frozenset((0,)), sig1), "a", ts)
    # both states map to {p}; the better predecessor wins, and the emptied
    # second stratum stays
    assert shifted.strata == (0b10, 0)
    assert shifted.rank_of(1) == 0


def test_shift_ranking_requires_deterministic(tiny_sig):
    nondet = complete_transitions(tiny_sig, [(0, "a", 1), (0, "a", 2)])
    with pytest.raises(ValueError):
        shift_ranking(dalal_ranking(frozenset((0,)), _SIG), "a", nondet)


def test_combined_change_compatible_observation(tiny_sig):
    ts = complete_transitions(tiny_sig, [(0, "a", 1), (2, "a", 3)])
    kappa = frozenset((0,))
    alpha = frozenset((1, 3))
    out = combined_change(kappa, "a", alpha, ts)
    # {p} is reachable from the believed state, {p,q} only from {q}
    assert out == frozenset((1,))


def test_combined_change_unreachable_observation(tiny_sig):
    ts = complete_transitions(tiny_sig, [(0, "a", 1)])
    kappa = frozenset((0, 2))
    nothing_reaches = frozenset()
    assert combined_change(kappa, "a", nothing_reaches, ts) == frozenset((1, 2))


def test_combined_change_disjoint_from_range(tiny_sig):
    # range of 'a' is {1,2,3}; observing {0} falls back to plain update
    ts = complete_transitions(tiny_sig, [(0, "a", 1)])
    kappa = frozenset((2,))
    assert combined_change(kappa, "a", frozenset((0,)), ts) == frozenset((2,))


# ---------------------------------------------------------------------------
# Differential tests against the definitions: Dalal revision keeps the states
# of alpha at minimum Hamming distance from kappa, and a shifted state takes
# the best rank among its predecessors.


def _distance(s, kappa):
    return min((s ^ k).bit_count() for k in kappa)


def _dalal_reference(kappa, alpha):
    if not alpha:
        return frozenset()
    best = min(_distance(s, kappa) for s in alpha)
    return frozenset(s for s in alpha if _distance(s, kappa) == best)


def _sets(n):
    return [frozenset(s for s in range(n) if m >> s & 1) for m in range(1 << n)]


def test_revise_matches_hamming_reference_three_fluents():
    sig = make_signature(("p", "q", "r"))
    assign = dalal_assignment(sig)
    sets = _sets(8)
    pairs = 0
    for kappa in sets[1:]:
        for alpha in sets:
            assert revise(kappa, alpha, assign) == _dalal_reference(kappa, alpha)
            pairs += 1
    assert pairs == 255 * 256


@st.composite
def _revision_case(draw):
    n = draw(st.integers(4, 8))
    states = st.integers(0, (1 << n) - 1)
    kappa = draw(st.frozensets(states, min_size=1, max_size=20))
    alpha = draw(st.frozensets(states, max_size=40))
    return n, kappa, alpha


@settings(deadline=None)
@given(_revision_case())
def test_revise_matches_hamming_reference_sampled(case):
    n, kappa, alpha = case
    sig = make_signature([f"f{k}" for k in range(n)])
    assert revise(kappa, alpha, dalal_assignment(sig)) == _dalal_reference(kappa, alpha)


def test_shift_and_combined_change_match_predecessor_reference(tiny_sig):
    """Every deterministic one-action system over two fluents."""
    sets = _sets(4)
    systems = 0
    for succ in itertools.product(range(4), repeat=4):
        ts = complete_transitions(tiny_sig, [(s, "a", d) for s, d in enumerate(succ)])
        systems += 1
        for kappa in sets[1:]:
            shifted = shift_ranking(dalal_ranking(kappa, tiny_sig), "a", ts)
            best = {}
            for s, d in enumerate(succ):
                best[d] = min(best.get(d, 4), _distance(s, kappa))
            assert [shifted.rank_of(t) for t in range(4)] == [best.get(t) for t in range(4)]
            for alpha in sets:
                ranked = [s for s in alpha if s in best]
                if ranked:
                    low = min(best[s] for s in ranked)
                    expected = frozenset(s for s in ranked if best[s] == low)
                else:
                    expected = update(kappa, "a", ts)
                assert combined_change(kappa, "a", alpha, ts) == expected
    assert systems == 256


@st.composite
def _partial_case(draw):
    """A deterministic two-action system over 0-3 fluents, a ranking that
    may leave states unranked and have empty strata, a belief and an
    observation."""
    n = draw(st.integers(0, 3))
    sig = make_signature([f"f{k}" for k in range(n)], ("a", "b"))
    size = sig.num_states
    states = st.integers(0, size - 1)
    succ = {a: draw(st.lists(states, min_size=size, max_size=size)) for a in ("a", "b")}
    ts = complete_transitions(
        sig, [(s, a, d) for a, row in succ.items() for s, d in enumerate(row)]
    )
    # Each state gets a rank below the stratum count, or none.
    count = draw(st.integers(1, 4))
    ranks = draw(st.lists(st.one_of(st.none(), st.integers(0, count - 1)),
                          min_size=size, max_size=size))
    strata = tuple(
        sum(1 << s for s, r in enumerate(ranks) if r == i) for i in range(count)
    )
    kappa = draw(st.frozensets(states, min_size=1))
    alpha = draw(st.frozensets(states))
    return ts, Ranking(strata), draw(st.sampled_from(("a", "b", "noop"))), kappa, alpha


@settings(max_examples=300, deadline=None)
@given(_partial_case())
def test_combined_change_matches_least_of_shifted_partial_ranking(case):
    ts, ranking, action, kappa, alpha = case
    got = combined_change(kappa, action, alpha, ts, lambda k: ranking)
    observed = _mask(alpha)
    if _mask(ts.successor_map(action)) & observed:
        expected = _members(_least(observed, shift_ranking(ranking, action, ts)))
    else:
        expected = update(kappa, action, ts)
    assert got == expected
