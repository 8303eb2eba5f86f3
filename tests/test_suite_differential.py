"""The memoised suite sweeps against instance-by-instance references.

``run_interaction_suite`` plans each padded view once per system and
``check_I1_I2`` takes each preimage once per (action, observation).  The
references here evaluate every instance on its own through the public
``check_interaction`` (and so the public ``evolve``) and through a fresh
``preimage`` per instance.  Broken or unfaithful rankings make the
violation lists non-empty, so their order is compared too, and a partial
ranking must fail the sweep and the reference with the same error.
"""

import random
from functools import partial

import pytest

import bevo.postulates as postulates
from bevo import Ranking, combined_change, dalal_assignment, preimage, revise, update
from bevo.postulates import (
    check_I1_I2,
    check_interaction,
    enumerate_instances,
    run_interaction_suite,
    single_action_systems,
    state_sets,
    suite_signature,
)


def _flat(n_fluents):
    """Every state equally plausible: revision keeps all of the observation."""
    everything = Ranking(((1 << (1 << n_fluents)) - 1,))
    return lambda kappa: everything


def _unfaithful(kappa):
    """Prefers the state where p holds whatever kappa is (one fluent)."""
    return Ranking((0b10, 0b01))


def _violations(vios):
    return [(v.postulate, v.instance, v.lhs, v.rhs) for v in vios]


def _interaction_reference(fluents, trajectory_len, assign, samples, seed):
    """(instances, notes, violations) from one ``check_interaction`` per instance."""
    consistent = repaired = informational = 0
    vios = []
    for inst in enumerate_instances(fluents, trajectory_len, samples, seed):
        rep = check_interaction(inst, assign)
        if rep.notes == ("consistent",):
            consistent += 1
            vios.extend(rep.violations)
        else:
            repaired += 1
            informational += len(rep.violations)
    notes = (
        f"{repaired} instances needed repair; informational failures "
        f"after repair: {informational}",
    )
    return consistent, notes, _violations(vios)


def _assignment(name, fluents):
    if name == "dalal":
        return dalal_assignment(suite_signature(fluents))
    return _unfaithful if name == "unfaithful" else _flat(fluents)


def _check_interaction_sweep(fluents, trajectory_len, ranking, samples=None, seed=0):
    assign = _assignment(ranking, fluents)
    want = _interaction_reference(fluents, trajectory_len, assign, samples, seed)
    rep = run_interaction_suite(fluents, trajectory_len, assign, samples, seed)
    assert (rep.instances, rep.notes, _violations(rep.violations)) == want
    return rep


@pytest.mark.parametrize("ranking", ["dalal", "unfaithful"])
@pytest.mark.parametrize("trajectory_len", [1, 2, 3])
def test_interaction_sweep_exhaustive_one_fluent(trajectory_len, ranking):
    rep = _check_interaction_sweep(1, trajectory_len, ranking)
    assert rep.instances > 0
    assert rep.passed == (ranking == "dalal")


@pytest.mark.parametrize("ranking", ["dalal", "flat"])
@pytest.mark.parametrize("fluents, seed", [(2, 0), (2, 11), (3, 0), (3, 11)])
def test_interaction_sweep_sampled(fluents, seed, ranking):
    rep = _check_interaction_sweep(fluents, 3, ranking, samples=300, seed=seed)
    assert rep.passed == (ranking == "dalal")


@pytest.mark.parametrize("ranking", ["dalal", "flat"])
@pytest.mark.parametrize("seed", [0, 1])
def test_interaction_sweep_exhaustive_two_fluent_slice(monkeypatch, seed, ranking):
    # The exhaustive two-fluent scope, over a seeded slice of its systems.
    systems = random.Random(seed).sample(list(single_action_systems(suite_signature(2))), 16)
    monkeypatch.setattr(postulates, "single_action_systems", lambda sig: iter(systems))
    assert sum(1 for _ in enumerate_instances(2, 1)) == 16 * 15 * 2 * 16
    rep = _check_interaction_sweep(2, 1, ranking)
    assert rep.passed == (ranking == "dalal")


@pytest.mark.parametrize("strata", [(0b0001, 0b0100), (0b1000,), (0b0110, 0b0001)])
@pytest.mark.parametrize("samples", [None, 50])
def test_interaction_sweep_rejects_a_partial_ranking_as_the_reference_does(strata, samples):
    def unranking(kappa):
        return Ranking(strata)

    with pytest.raises(ValueError) as swept:
        run_interaction_suite(2, 1, unranking, samples)
    with pytest.raises(ValueError) as reference:
        _interaction_reference(2, 1, unranking, samples, 0)
    assert str(swept.value) == str(reference.value)
    assert str(swept.value).startswith("state index ")


def _i1i2_reference(op, assign, ts):
    """(instances, violations) with a fresh preimage for every instance."""
    sig = ts.signature
    count, vios = 0, []
    for action in sig.actions:
        reach = frozenset(ts.successor_map(action))
        for kappa in state_sets(sig, include_empty=False):
            for alpha in state_sets(sig):
                count += 1
                got = op(kappa, action, alpha)
                if reach & alpha:
                    pid = "I1"
                    pre = preimage(alpha, (action,), ts)
                    want = update(revise(kappa, pre, assign), action, ts)
                else:
                    pid = "I2"
                    want = update(kappa, action, ts)
                if got != want:
                    vios.append((pid, (kappa, action, alpha), got, want))
    return count, vios


def _check_i1i2(ts, fluents):
    """``check_I1_I2`` of the suite's operator and of one that ranks wrongly."""
    assign = dalal_assignment(suite_signature(fluents))
    found = 0
    for op_assign in (assign, _flat(fluents)):
        op = partial(combined_change, ts=ts, assign=op_assign)
        rep = check_I1_I2(op, assign, ts)
        got = [
            (v.postulate, (v.instance.kappa, *v.instance.actions, *v.instance.observations),
             v.lhs, v.rhs)
            for v in rep.violations
        ]
        assert (rep.instances, got) == _i1i2_reference(op, assign, ts)
        found += len(got)
    return found


def test_i1i2_every_one_fluent_system():
    systems = list(single_action_systems(suite_signature(1)))
    assert sum(_check_i1i2(ts, 1) for ts in systems) > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_i1i2_sampled_two_fluent_systems(seed):
    systems = list(single_action_systems(suite_signature(2)))
    sample = random.Random(seed).sample(systems, 6)
    assert sum(_check_i1i2(ts, 2) for ts in sample) > 0


@pytest.mark.parametrize("trajectory_len, n_systems", [(2, 16), (3, 6)])
def test_interaction_sweep_exhaustive_two_fluent_slice_longer_trajectories(
    monkeypatch, trajectory_len, n_systems
):
    # Trajectories with one composite successor function (a, a,noop and
    # noop,a; noop and noop,noop) share their plans in the sweep, and the
    # flat ranking gives each of them violations of its own.
    systems = random.Random(trajectory_len).sample(
        list(single_action_systems(suite_signature(2))), n_systems
    )
    monkeypatch.setattr(postulates, "single_action_systems", lambda sig: iter(systems))
    rep = _check_interaction_sweep(2, trajectory_len, "flat")
    assert {("a",), ("a", "noop"), ("noop", "a"), ("noop",), ("noop", "noop")} <= {
        v.instance.actions for v in rep.violations
    }


def test_interaction_violations_carry_their_own_trajectory(monkeypatch):
    # Each violation's instance is the enumerated instance it was found on,
    # never one of another trajectory with the same composite successor
    # function, and the violations come in enumeration order.
    systems = random.Random(3).sample(list(single_action_systems(suite_signature(2))), 4)
    monkeypatch.setattr(postulates, "single_action_systems", lambda sig: iter(systems))
    position = {inst: i for i, inst in enumerate(enumerate_instances(2, 2))}
    rep = run_interaction_suite(2, 2, _flat(2))
    found = [position[v.instance] for v in rep.violations]
    assert found == sorted(found)
    trajectories = {inst.actions for inst in position}
    assert len(trajectories) == 6
    assert {v.instance.actions for v in rep.violations} == trajectories


def _bits(states):
    return sum(1 << s for s in states)


@pytest.mark.parametrize("fluents, seed", [(1, 0), (2, 5), (3, 9)])
def test_sampled_instances_draw_system_kappa_trajectory_then_observation(fluents, seed):
    sig = suite_signature(fluents)
    n = sig.num_states
    rng = random.Random(seed)
    want = []
    for _ in range(60):
        succ = tuple(rng.randrange(n) for _ in range(n))
        kappa, steps = rng.randrange(1, 1 << n), rng.randint(1, 3)
        acts = tuple(rng.choice(sig.actions) for _ in range(steps))
        want.append((succ, kappa, acts, rng.randrange(1 << n)))
    got = [
        (inst.ts.successor_map("a"), _bits(inst.kappa), inst.actions, _bits(inst.observations[0]))
        for inst in enumerate_instances(fluents, 3, 60, seed)
    ]
    assert got == want
