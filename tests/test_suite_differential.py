"""The memoised suite sweeps against instance-by-instance references.

``run_interaction_suite`` plans each padded view once per system and
``check_I1_I2`` takes each preimage once per (action, observation).  The
references here evaluate every instance on its own through the public
``check_interaction`` (and so the public ``evolve``) and through a fresh
``preimage`` per instance.  The exhaustive ``run_lehmann_suite`` checks each
law for every kappa at once, one lane of a word per kappa, and shares each
observation sequence's cores across kappa; its lanes, and the one-lane
words of the sampled stream and the counterexample, are checked against
the public ``iterated_revise``, and its whole report against a sweep of the
laws as stated on state sets, one kappa at a time.  The ``dp`` report is
checked against DP1-DP4 and REC as stated on state sets.  Broken operators
and unfaithful rankings make the violation lists non-empty, so their order
is compared too, and a partial ranking must fail the sweep and the
reference with the same error.
"""

import random
from functools import cache, partial
from itertools import product

import pytest

import bevo.evolution as evolution
import bevo.postulates as postulates
from bevo import Ranking, combined_change, dalal_assignment, preimage, revise, update
from bevo.kernel import _members
from bevo.postulates import (
    Instance,
    SuiteReport,
    Violation,
    check_I1_I2,
    check_interaction,
    enumerate_instances,
    run_dp_suite,
    run_interaction_suite,
    run_lehmann_suite,
    single_action_systems,
    state_sets,
    suite_signature,
)
from test_suite_golden import _OPERATORS, _believe_last


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


def _lehmann_assignment(name, fluents):
    sig = suite_signature(fluents, with_action=False)
    return sig, (dalal_assignment(sig) if name == "dalal" else _flat(fluents))


def _check_shared_fins(sig, assign, pairs):
    """Each kappa's lane of the sweep's shared-core lane words, and the
    one-lane word of the sampled stream and the counterexample, against the
    public operator on each (kappa, sequence) pair."""
    pairs = list(pairs)
    kappas = tuple(dict.fromkeys(k for k, _ in pairs))
    lanes = postulates._lehmann_lanes(sig, cache(assign), kappas)
    alone = {kappa: postulates._lehmann_lanes(sig, cache(assign), (kappa,)) for kappa in kappas}
    n = sig.num_states
    shift = {kappa: i * n for i, kappa in enumerate(kappas)}
    for kappa, seq in pairs:
        masks = tuple(map(_bits, seq))
        want = evolution.iterated_revise(kappa, seq, sig, assign)
        assert _members(lanes.fin(masks) >> shift[kappa] & (1 << n) - 1) == want, (kappa, seq)
        assert _members(alone[kappa].fin(masks)) == want, (kappa, seq)


@pytest.mark.parametrize("ranking", ["dalal", "flat"])
@pytest.mark.parametrize("fluents", [1, 2])
def test_lehmann_shared_cores_exhaustive(fluents, ranking):
    # Every sequence of length 1-3 over every state set, the empty one
    # included: L3 quantifies over it and L7 feeds in the complement of the
    # full set.
    sig, assign = _lehmann_assignment(ranking, fluents)
    every = state_sets(sig)
    seqs = [seq for n in (1, 2, 3) for seq in product(every, repeat=n)]
    _check_shared_fins(sig, assign, product(every[1:], seqs))


@pytest.mark.parametrize("ranking", ["dalal", "flat"])
@pytest.mark.parametrize("fluents", [3, 4])
def test_lehmann_shared_cores_sampled(fluents, ranking):
    sig, assign = _lehmann_assignment(ranking, fluents)
    rng = random.Random(7)
    size = 1 << sig.num_states
    draw_kappa = partial(rng.randrange, 1, size)
    if fluents == 4:
        # 16 states: every mask is wider than one byte.  The sweep's word has
        # a lane per distinct kappa, so kappa comes from a pool of 40.
        draw_kappa = partial(rng.choice, [rng.randrange(1, size) for _ in range(40)])
    pairs = [
        (_members(draw_kappa()),
         tuple(_members(rng.randrange(size)) for _ in range(rng.randint(1, 3))))
        for _ in range(3000)
    ]
    _check_shared_fins(sig, assign, pairs)


@pytest.mark.parametrize(
    "fluents, max_len, ranking",
    [(f, n, "dalal") for f in (1, 2) for n in (1, 2, 3)] + [(1, 3, "flat"), (2, 3, "flat")],
)
def test_lehmann_shared_cores_report_is_the_per_kappa_report(monkeypatch, fluents, max_len, ranking):
    _, assign = _lehmann_assignment(ranking, fluents)
    shared = run_lehmann_suite(fluents, assign, max_len)
    # A forwarding wrapper is not bevo's own operator, so the sweep calls it
    # once per kappa and sequence.
    monkeypatch.setattr(
        postulates, "iterated_revise", lambda *args, **kw: evolution.iterated_revise(*args, **kw)
    )
    assert run_lehmann_suite(fluents, assign, max_len) == shared
    # Both rankings keep these laws; the broken operators of the golden
    # tests are what break them.
    assert shared.passed and shared.instances > 0


# ---------------------------------------------------------------------------
# The Lehmann laws as stated, on state sets, one kappa at a time.


def _l2(fin, prefix, alpha, betas):
    """O.alpha entails alpha."""
    got = fin(prefix + (alpha,))
    if not got <= alpha:
        yield prefix + (alpha,), got, alpha


def _l3(fin, prefix, alpha, betas):
    """If O entails alpha, O entails whatever O.alpha entails."""
    f_o, f_oa = fin(prefix), fin(prefix + (alpha,))
    for beta in betas:
        if f_o <= alpha and f_oa <= beta and not f_o <= beta:
            yield prefix + (alpha, beta), f_o, beta


def _l4(fin, prefix, alpha, betas):
    """If O entails alpha, O.alpha believes what O does."""
    lhs, rhs = fin(prefix), fin(prefix + (alpha,))
    if lhs <= alpha and lhs != rhs:
        yield prefix + (alpha,), lhs, rhs


def _l5(fin, prefix, alpha, betas):
    """For beta inside alpha, O.alpha.beta believes what O.beta does."""
    for beta in betas:
        lhs, rhs = fin(prefix + (alpha, beta)), fin(prefix + (beta,))
        if lhs != rhs:
            yield prefix + (alpha, beta), lhs, rhs


def _l6(fin, prefix, alpha, betas):
    """If O.alpha allows beta, O.alpha.beta believes what O.alpha.(alpha & beta) does."""
    for beta in betas:
        if fin(prefix + (alpha,)) & beta:
            lhs, rhs = fin(prefix + (alpha, beta)), fin(prefix + (alpha, alpha & beta))
            if lhs != rhs:
                yield prefix + (alpha, beta), lhs, rhs


def _l7(fin, prefix, alpha, betas):
    """O.(not alpha).alpha keeps every state O.alpha keeps."""
    for complement in betas:
        lhs, rhs = fin(prefix + (alpha,)), fin(prefix + (complement, alpha))
        if not lhs <= rhs:
            yield prefix + (alpha,), lhs, rhs


# (name, law, shortest prefix, observations appended, the betas of alpha)
_LAWS = (
    ("L2", _l2, 0, 1, lambda alpha, every: ()),
    ("L3", _l3, 1, 1, lambda alpha, every: every),
    ("L4*", _l4, 1, 1, lambda alpha, every: ()),
    ("L5*", _l5, 0, 2, lambda alpha, every: [b for b in every[1:] if b <= alpha]),
    ("L6*", _l6, 0, 2, lambda alpha, every: every[1:]),
    ("L7", _l7, 0, 2, lambda alpha, every: (every[-1] - alpha,)),
)


def _lehmann_reference(fluents, assign, max_len, operator):
    """The exhaustive report law by law, then by kappa, prefix, alpha and beta."""
    sig = suite_signature(fluents, with_action=False)
    every = state_sets(sig)
    count, vios = 0, []
    for name, law, shortest, appended, betas_of in _LAWS:
        lengths = range(shortest, max_len - appended + 1)
        prefixes = [seq for ln in lengths for seq in product(every[1:], repeat=ln)]
        for kappa in every[1:]:
            fin = cache(partial(operator, kappa, sig=sig, assign=assign))
            for prefix in prefixes:
                for alpha in every[1:]:
                    betas = betas_of(alpha, every)
                    count += len(betas) or 1
                    for obs, lhs, rhs in law(fin, prefix, alpha, betas):
                        vios.append(Violation(name, Instance(sig, None, kappa, (), obs), lhs, rhs))
    scope = f"exhaustive fluents={fluents} len<={max_len}"
    return SuiteReport("lehmann", scope, count, tuple(vios))


@pytest.mark.parametrize("ranking", ["dalal", "flat"])
@pytest.mark.parametrize("max_len", [1, 2, 3])
@pytest.mark.parametrize("fluents", [1, 2])
def test_lehmann_sweep_is_the_laws_as_stated(fluents, max_len, ranking):
    _, assign = _lehmann_assignment(ranking, fluents)
    want = _lehmann_reference(fluents, assign, max_len, evolution.iterated_revise)
    assert run_lehmann_suite(fluents, assign, max_len) == want


@pytest.mark.parametrize(
    "op, max_len",
    [(op, 2) for op in ("oldest_first", "last_only", "two_shot", "believe_last")]
    + [("believe_last", 3)],
)
def test_lehmann_sweep_is_the_laws_as_stated_under_broken_operators(monkeypatch, op, max_len):
    # Two fluents give 15 lanes of 4 bits, so a lane read at the wrong
    # width, or violations listed out of kappa order, show here.  At length
    # 2 the operators break L2 and L7, L3, L4* and L6*, L5* and L7, and L4*
    # and L6*, in that order, in every lane.
    operator = _believe_last if op == "believe_last" else _OPERATORS[op]
    _, assign = _lehmann_assignment("dalal", 2)
    want = _lehmann_reference(2, assign, max_len, operator)
    monkeypatch.setattr(postulates, "iterated_revise", operator)
    rep = run_lehmann_suite(2, assign, max_len)
    assert len({v.instance.kappa for v in rep.violations}) > 1
    assert rep == want


# ---------------------------------------------------------------------------
# The iterated-revision laws as stated, on state sets.


def _dp_reference(fluents, assign, operator):
    """The exhaustive ``dp`` report by kappa, beta, alpha, then law.

    DP1-DP4 are Darwiche & Pearl (1997) and REC is Nayak, Pagnucco & Peppas
    (2003), each on kappa revised by beta then alpha (``then``) and kappa
    revised by alpha alone (``now``).  Entailment is inclusion, and
    consistency a non-empty meet.
    """
    sig = suite_signature(fluents, with_action=False)
    nonempty = state_sets(sig, include_empty=False)
    vios = []
    for kappa, beta, alpha in product(nonempty, repeat=3):
        then = operator(kappa, (beta, alpha), sig, assign)
        now = revise(kappa, alpha, assign)
        # (law, premise, conclusion, lhs, rhs)
        laws = (
            # If alpha entails beta, revising by beta first changes nothing.
            ("DP1", alpha <= beta, then == now, then, now),
            # If alpha entails not-beta, neither does it.
            ("DP2", not alpha & beta, then == now, then, now),
            # If kappa revised by alpha entails beta, so does the two-step result.
            ("DP3", now <= beta, then <= beta, then, beta),
            # If kappa revised by alpha is consistent with beta, so is the two-step result.
            ("DP4", bool(now & beta), bool(then & beta), then, beta),
            # If alpha is consistent with beta, the two-step result entails beta.
            ("REC", bool(alpha & beta), then <= beta, then, beta),
        )
        for name, premise, conclusion, lhs, rhs in laws:
            if premise and not conclusion:
                inst = Instance(sig, None, kappa, (), (beta, alpha))
                vios.append(Violation(name, inst, lhs, rhs))
    scope = f"exhaustive fluents={fluents} triples"
    return SuiteReport("dp", scope, len(nonempty) ** 3, tuple(vios))


@pytest.mark.parametrize("op", ["evolution", *_OPERATORS, "believe_last"])
@pytest.mark.parametrize("ranking", ["dalal", "flat"])
@pytest.mark.parametrize("fluents", [1, 2])
def test_dp_suite_is_the_laws_as_stated(monkeypatch, fluents, ranking, op):
    operators = {"evolution": evolution.iterated_revise, "believe_last": _believe_last}
    operator = {**operators, **_OPERATORS}[op]
    _, assign = _lehmann_assignment(ranking, fluents)
    want = _dp_reference(fluents, assign, operator)
    monkeypatch.setattr(postulates, "iterated_revise", operator)
    assert run_dp_suite(fluents, assign) == want
