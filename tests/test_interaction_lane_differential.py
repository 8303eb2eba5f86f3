"""The lane words of ``run_interaction_suite``, lane by lane.

The suite revises every kappa by each padded view's core at once, one lane
of a word per kappa, and images that word under the trajectory's composite
successor function (``postulates._induced_words``).  Its P1-P5 tests are
the ones ``check_interaction`` runs on one lane, so comparing the two would
not see a law stated wrongly in both.  Here every lane of the induced words,
taken from the K*alpha words of ``_lane_route`` and from ``_revised`` kappa
by kappa, is checked against the public ``evolution_final_state``, and the
suite's whole report against P1-P5 as stated on state sets.
"""

import random
from functools import cache, partial
from itertools import product

import pytest

import bevo.postulates as postulates
from bevo import combined_change, dalal_assignment, update_seq
from bevo.kernel import _members, universe
from bevo.postulates import (
    Instance,
    _induced_words,
    _lane_route,
    _lanes,
    check_I1_I2,
    check_interaction,
    evolution_final_state,
    run_interaction_suite,
    single_action_systems,
    state_sets,
    suite_signature,
)
from test_lane_route_differential import _ASSIGNMENTS, _lanes_of
from test_suite_differential import _i1i2_reference


def _laws(kappa, acts, alpha, final, ts):
    """Whether the padded view was consistent, and P1-P5 as stated on state
    sets, as (postulate, lhs, rhs)."""
    reach = update_seq(universe(ts.signature), acts, ts)
    base = update_seq(kappa, acts, ts)
    met = base & alpha
    laws = [
        ("P1", bool(reach & alpha) and not final <= alpha, final, alpha),
        ("P2", not reach & alpha and final != base, final, base),
        ("P3", not met <= final, met, final),
        ("P4", bool(met) and not final <= met, final, met),
        ("P5", not final <= reach, final, reach),
    ]
    return bool(reach & alpha), [(pid, lhs, rhs) for pid, broken, lhs, rhs in laws if broken]


def _check_interaction_words(monkeypatch, systems, name, trajectory_len):
    sig = systems[0].signature
    assign = cache(_ASSIGNMENTS[name](sig))
    kappas = state_sets(sig, include_empty=False)
    lengths = range(1, trajectory_len + 1)
    trajectories = [t for k in lengths for t in product(sig.actions, repeat=k)]
    lanes, rankings = _lanes(sig.num_states, len(kappas)), [assign(kappa) for kappa in kappas]
    ranked = _lane_route(sig, assign)
    routes = [None] if ranked is None else [ranked[2], None]
    repaired = failures = 0
    want = []
    for ts in systems:
        finals = {
            (kappa, acts, alpha): evolution_final_state(kappa, acts, alpha, ts, assign)
            for kappa, acts, alpha in product(kappas, trajectories, state_sets(sig))
        }
        for words in routes:
            induced = _induced_words(lanes, ts, rankings, trajectories, range(1 << sig.num_states), words)
            assert sorted(acts for group, _ in induced.values() for acts in group) == sorted(trajectories)
            for group, by_alpha in induced.values():
                for acts, (amask, word) in product(group, enumerate(by_alpha)):
                    got = _lanes_of(sig, word, len(kappas))
                    assert got == [finals[kappa, acts, _members(amask)] for kappa in kappas], acts
        for (kappa, acts, alpha), final in finals.items():
            consistent, found = _laws(kappa, acts, alpha, final, ts)
            if consistent:
                inst = Instance(sig, ts, kappa, acts, (alpha,))
                want += [(pid, inst, lhs, rhs) for pid, lhs, rhs in found]
            else:
                repaired += 1
                failures += len(found)
    monkeypatch.setattr(postulates, "single_action_systems", lambda sig: iter(systems))
    rep = run_interaction_suite(len(sig.fluents), trajectory_len, assign)
    note = f"{repaired} instances needed repair; informational failures after repair: {failures}"
    count = len(systems) * len(kappas) * len(trajectories) << sig.num_states
    assert (rep.instances, rep.notes) == (count - repaired, (note,))
    assert [(v.postulate, v.instance, v.lhs, v.rhs) for v in rep.violations] == want
    return rep


@pytest.mark.parametrize("name", ["dalal", "flat", "unfaithful", "preferring", "overreaching"])
def test_interaction_words_every_one_fluent_system(monkeypatch, name):
    systems = list(single_action_systems(suite_signature(1)))
    rep = _check_interaction_words(monkeypatch, systems, name, 3)
    assert rep.passed == (name in ("dalal", "preferring", "overreaching"))


@pytest.mark.parametrize("name", ["dalal", "flat", "unfaithful", "preferring"])
def test_interaction_words_seeded_two_fluent_systems(monkeypatch, name):
    systems = random.Random(7).sample(list(single_action_systems(suite_signature(2))), 8)
    _check_interaction_words(monkeypatch, systems, name, 2)


@pytest.mark.parametrize("name", ["dalal", "flat", "overreaching"])
def test_check_I1_I2_is_the_reference_under_several_rankings(name):
    # The expected side is _revised kappa by kappa, whether or not the
    # ranking grades a state past the signature (overreaching).
    for fluents, count in ((1, 4), (2, 6)):
        sig = suite_signature(fluents)
        assign = _ASSIGNMENTS[name](sig)
        op_assign = _ASSIGNMENTS["dalal" if name == "flat" else "flat"](sig)
        for ts in random.Random(fluents).sample(list(single_action_systems(sig)), count):
            op = partial(combined_change, ts=ts, assign=op_assign)
            rep = check_I1_I2(op, assign, ts)
            got = [
                (v.postulate, (v.instance.kappa, *v.instance.actions, *v.instance.observations),
                 v.lhs, v.rhs)
                for v in rep.violations
            ]
            assert (rep.instances, got) == _i1i2_reference(op, assign, ts)


def _outside(sig):
    """The first state past the signature, as a set."""
    return frozenset((sig.num_states,))


def test_check_interaction_refuses_an_induced_change_outside_the_signature():
    # check_interaction tests P1-P5 on one lane of num_states bits; a state
    # index past them would be a bit of no lane.
    sig = suite_signature(1)
    ts = next(single_action_systems(sig))
    inst = Instance(sig, ts, frozenset({0}), ("a",), (frozenset({1}),))
    with pytest.raises(ValueError, match="^state index 2 out of range$"):
        check_interaction(inst, operator=lambda kappa, acts, alpha: alpha | _outside(sig))


def test_check_I1_I2_refuses_a_change_outside_the_signature():
    # check_I1_I2 packs the operator's result for each kappa into num_states
    # bits of one word per alpha; a state index past them would land in the
    # next kappa's bits.
    sig = suite_signature(1)
    ts = next(single_action_systems(sig))
    with pytest.raises(ValueError, match="^state index 2 out of range$"):
        check_I1_I2(lambda kappa, action, alpha: alpha | _outside(sig), dalal_assignment(sig), ts)
