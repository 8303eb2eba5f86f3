"""Evolution's mask revision path against the definitional one.

``evolve`` ranks kappa once and revises each repair's core on masks;
``evolve_skeptical`` forwards the union of those starts once.  The
definition revises kappa by each core through the public ``revise``, one
repair at a time, and forwards each result.  Both must give equal results,
or the same ``ValueError`` text, under a Dalal, a flat, an unfaithful and a
partial ranking: exhaustively over every 1- and 2-fluent one-action system
with views of length at most 2 under ``recency`` and ``constant``, and on
sampled views at 3 fluents.
"""

from itertools import product

import hypothesis.strategies as st
from hypothesis import given, settings

import bevo.evolution as evolution
from bevo import (
    EvolutionResult,
    Ranking,
    WorldView,
    complete_transitions,
    constant,
    dalal_assignment,
    evolve,
    evolve_skeptical,
    make_signature,
    recency,
    revise,
)
from bevo.kernel import _mask, _members
from bevo.postulates import single_action_systems, state_sets, suite_signature


def _assignments(sig):
    """A Dalal, a flat, an unfaithful and a partial ranking rule."""
    full = (1 << sig.num_states) - 1
    dalal = dalal_assignment(sig)
    # State 1 and the last state are left unranked by the partial rule.
    graded = full & ~0b10 & ~(1 << sig.num_states - 1)
    return (
        dalal,
        lambda kappa: Ranking((_mask(kappa), full & ~_mask(kappa))),
        lambda kappa: Ranking(dalal(kappa).strata[::-1]),
        lambda kappa: Ranking(tuple(m & graded for m in dalal(kappa).strata)),
    )


def _reference_evolve(kappa, view, ts, assign, r):
    assign = evolution._checked_assignment(kappa, ts, assign)
    was_consistent, fixed, cores = evolution._plan(view, ts, r)
    trajectories = tuple(
        evolution._forward(revise(kappa, _members(core), assign), view, ts) for core in cores
    )
    return EvolutionResult(was_consistent, fixed, trajectories)


def _outcome(entry, *args):
    try:
        return entry(*args)
    except ValueError as e:
        return ("error", str(e))


def _check(kappa, view, ts, assign, r):
    """Compare both entries with the definition; return whether the view
    was found consistent."""
    args = (kappa, view, ts, assign, r)
    want = _outcome(_reference_evolve, *args)
    assert _outcome(evolve, *args) == want
    if not isinstance(want, EvolutionResult):
        assert _outcome(evolve_skeptical, *args) == want
        return False
    # Skeptical evolution forwards the union of the repairs' starts.
    starts = frozenset().union(*(t[0] for t in want.trajectories))
    assert evolve_skeptical(*args) == evolution._forward(starts, view, ts)
    return want.was_consistent


def test_exhaustive_one_and_two_fluents_length_two():
    checked = 0
    for n in (1, 2):
        sig = suite_signature(n)
        sets = state_sets(sig)
        assignments = _assignments(sig)
        for ts in single_action_systems(sig):
            for acts in (("a",), ("a", "a")):
                for obs in product(sets, repeat=len(acts)):
                    view = WorldView(acts, obs)
                    # Every kappa, the empty one included, meets every rule.
                    kappa = sets[checked // 4 % len(sets)]
                    for r in (recency, constant):
                        # A consistent view has one plan whatever the order.
                        if _check(kappa, view, ts, assignments[checked % 4], r):
                            break
                    checked += 1
    assert checked == 4 * (4 + 16) + 256 * (16 + 256)


@st.composite
def _three_fluent_cases(draw):
    sig = make_signature(("p", "q", "r"), ("a", "b"))
    size = sig.num_states
    ts = complete_transitions(
        sig, [(s, a, draw(st.integers(0, size - 1))) for a in ("a", "b") for s in range(size)]
    )
    length = draw(st.integers(1, 6))
    acts = tuple(draw(st.sampled_from(sig.actions)) for _ in range(length))
    obs = tuple(
        frozenset(draw(st.sets(st.integers(0, size - 1), max_size=size)))
        for _ in range(length)
    )
    kappa = frozenset(draw(st.sets(st.integers(0, size - 1), min_size=1)))
    assign = draw(st.sampled_from(_assignments(sig)))
    return kappa, WorldView(acts, obs), ts, assign, draw(st.sampled_from((recency, constant)))


@settings(max_examples=150, deadline=None)
@given(_three_fluent_cases())
def test_sampled_three_fluents(case):
    _check(*case)


def test_evolve_ranks_kappa_once():
    sig = suite_signature(2)
    ts = next(iter(single_action_systems(sig)))
    dalal = dalal_assignment(sig)
    calls = []

    def counted(kappa):
        calls.append(kappa)
        return dalal(kappa)

    # Two observations that no state satisfies together: two tied repairs.
    view = WorldView(("noop", "noop"), (frozenset((0,)), frozenset((1,))))
    kappa = frozenset((3,))
    for entry in (evolve, evolve_skeptical):
        calls.clear()
        entry(kappa, view, ts, counted, constant)
        assert calls == [kappa]
    assert len(evolve(kappa, view, ts, counted, constant).trajectories) == 2
