"""The lane route of ``run_agm_suite`` and ``run_i1i2_suite``, lane by lane.

Under bevo's own operators both suites rank every kappa once into lane
words (``postulates._ranked_lanes``) and revise on them with
``_Lanes.least``.  I1 compares two sides that both go through ``least``, so
a wrong ``least`` (one that keeps the last stratum meeting alpha, say)
would cancel out and still pass the suite.  Here every lane is checked
against the public operators instead: each K*alpha word against
``revise``, and each side of ``_i1i2_hits`` against ``combined_change``
(the operator) and against ``update`` of ``revise`` by ``preimage`` (I1) or
of kappa (I2).  A ranking that grades states past the signature takes the
per-call route instead, whose reports are checked against the reference.
"""

import random
from functools import cache, partial

import pytest

from bevo import Ranking, combined_change, dalal_assignment, preimage, revise, update
from bevo.kernel import _members
from bevo.postulates import (
    _combined_hits,
    _lane_route,
    _prefer_state_assignment,
    _random_system,
    _ranked_lanes,
    check_agm,
    run_agm_suite,
    run_i1i2_suite,
    single_action_systems,
    state_sets,
    suite_signature,
)
from test_suite_differential import _i1i2_reference


def _flat(sig):
    everything = Ranking(((1 << sig.num_states) - 1,))
    return lambda kappa: everything


def _unfaithful(sig):
    """States in decreasing index order, whatever kappa is."""
    ranking = Ranking(tuple(1 << s for s in reversed(range(sig.num_states))))
    return lambda kappa: ranking


def _preferring(sig):
    """Faithful: kappa first, then the last state, then the rest."""
    return _prefer_state_assignment(sig, sig.num_states - 1)


def _overreaching(sig):
    """Dalal's strata, each also naming the first state past the signature.

    ``revise`` never sees that state, as no observation holds it; in a lane
    word it would be the next lane's state 0, were strata not cut to the
    signature.  The suites never take the lane route for such a ranking.
    """
    dalal = dalal_assignment(sig)
    return lambda kappa: Ranking(tuple(m | 1 << sig.num_states for m in dalal(kappa).strata))


_ASSIGNMENTS = {
    "dalal": dalal_assignment,
    "flat": _flat,
    "unfaithful": _unfaithful,
    "preferring": _preferring,
    "overreaching": _overreaching,
}


def _lanes_of(sig, word, count):
    n = sig.num_states
    return [_members(word >> i * n & (1 << n) - 1) for i in range(count)]


def _ranked(sig, assign):
    kappas = state_sets(sig, include_empty=False)
    return kappas, _ranked_lanes(sig, [assign(kappa) for kappa in kappas])


@pytest.mark.parametrize("name", list(_ASSIGNMENTS))
@pytest.mark.parametrize("fluents", [1, 2, 3])
def test_least_of_the_ranking_words_is_revise_in_every_lane(fluents, name):
    sig = suite_signature(fluents, with_action=False)
    assign = cache(_ASSIGNMENTS[name](sig))
    kappas, (_, _, words) = _ranked(sig, assign)
    for amask, alpha in enumerate(state_sets(sig)):
        got = _lanes_of(sig, words[amask], len(kappas))
        assert got == [revise(kappa, alpha, assign) for kappa in kappas], alpha


def _check_i1i2_sides(ts, assign):
    """Each lane of ``_i1i2_hits`` on ``ts``, for both actions, against the
    public operators."""
    sig = ts.signature
    kappas, ranked = _ranked(sig, assign)
    revised = cache(revise)
    for action in sig.actions:
        hits = _combined_hits(*ranked, ts.successor_map(action))
        assert [obs for _, _, obs, _, _ in hits] == [(m,) for m in range(len(hits))]
        reach = update(frozenset(range(sig.num_states)), action, ts)
        for (pid, bad, _, got, want), alpha in zip(hits, state_sets(sig)):
            pre = preimage(alpha, (action,), ts)
            assert pid == ("I1" if reach & alpha else "I2") and not bad
            assert _lanes_of(sig, got, len(kappas)) == [
                combined_change(kappa, action, alpha, ts, assign) for kappa in kappas
            ]
            assert _lanes_of(sig, want, len(kappas)) == [
                update(revised(kappa, pre, assign) if pid == "I1" else kappa, action, ts)
                for kappa in kappas
            ]


@pytest.mark.parametrize("fluents", [1, 2])
def test_i1i2_sides_in_every_lane_for_every_system(fluents):
    sig = suite_signature(fluents)
    assign = cache(dalal_assignment(sig))
    for ts in single_action_systems(sig):
        _check_i1i2_sides(ts, assign)


@pytest.mark.parametrize("name", ["flat", "unfaithful", "preferring"])
def test_i1i2_sides_under_other_rankings(name):
    # Every one-fluent system, and a seeded slice of the two-fluent ones.
    for fluents, count in ((1, 4), (2, 16)):
        sig = suite_signature(fluents)
        assign = cache(_ASSIGNMENTS[name](sig))
        systems = list(single_action_systems(sig))
        for ts in random.Random(fluents).sample(systems, count):
            _check_i1i2_sides(ts, assign)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_i1i2_sides_on_seeded_three_fluent_systems(seed):
    # 255 lanes of 8 states: 2,040-bit words.
    sig = suite_signature(3)
    _check_i1i2_sides(_random_system(random.Random(seed), sig), cache(dalal_assignment(sig)))


@pytest.mark.parametrize("fluents, samples", [(1, None), (2, 6)])
def test_a_ranking_past_the_signature_takes_the_per_call_route_to_the_reference(fluents, samples):
    # Every state is graded, and states past the signature too, so the
    # suites call the operators instance by instance.  Both revise around
    # the states past the signature: the reports are the reference's, and
    # those of the ranking cut to the signature, which takes the lane route.
    sig = suite_signature(fluents)
    over = Ranking((0b1, 0b11110))
    cut = Ranking(tuple(m & (1 << sig.num_states) - 1 for m in over.strata))

    def assign(kappa):
        return over

    assert _lane_route(sig, assign) is None
    assert _lane_route(sig, lambda kappa: cut) is not None
    agm = run_agm_suite(fluents, assign)
    assert agm == check_agm(assign, suite_signature(fluents, with_action=False))
    assert agm == run_agm_suite(fluents, lambda kappa: cut) and not agm.passed
    rep = run_i1i2_suite(fluents, assign, samples=samples)
    if samples is None:
        systems = list(single_action_systems(sig))
    else:
        rng = random.Random(0)
        systems = [_random_system(rng, sig) for _ in range(samples)]
    count, want = 0, []
    for ts in systems:
        n, vios = _i1i2_reference(partial(combined_change, ts=ts, assign=assign), assign, ts)
        count, want = count + n, want + vios
    got = [
        (v.postulate, (v.instance.kappa, *v.instance.actions, *v.instance.observations), v.lhs, v.rhs)
        for v in rep.violations
    ]
    assert (rep.instances, got) == (count, want)
    assert rep == run_i1i2_suite(fluents, lambda kappa: cut, samples=samples)
