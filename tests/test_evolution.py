import pytest
import hypothesis.strategies as st
from hypothesis import assume, given

import bevo.evolution as evolution
from bevo import (
    EvolutionResult,
    WorldView,
    combined_change,
    complete_transitions,
    consistent,
    constant,
    dalal_ranking,
    evolve,
    evolve_skeptical,
    final_state_shortcut,
    fixed_weights,
    iterated_revise,
    make_signature,
    minimal_repair_candidates,
    padded_view,
    preimage,
    recency,
    repairs,
    shift_ranking,
    universe,
    update_seq,
)

from conftest import state_of

_SIG = make_signature(("p", "q"), ("a",))


def _red_states(sig):
    red = state_of(sig, "Red")
    return frozenset(s for s in range(sig.num_states) if s & red)


def _acid_states(sig):
    acid = state_of(sig, "Acid")
    return frozenset(s for s in range(sig.num_states) if s & acid)


# conflicting observations under no change: acid, then not acid
@pytest.fixture()
def conflict_view(litmus):
    sig = litmus.signature
    acid = _acid_states(sig)
    return WorldView(("noop", "noop"), (acid, universe(sig) - acid))


def test_world_view_validation():
    with pytest.raises(ValueError):
        WorldView(("a",), ())
    with pytest.raises(ValueError):
        WorldView((), ())
    assert len(WorldView(("a", "a"), (frozenset(), frozenset()))) == 2


def test_reliability_functions():
    assert recency(3) == (-1, -2, -3)
    assert constant(3) == (0, 0, 0)
    fn = fixed_weights((2, 0, 1))
    assert fn(3) == (2, 0, 1)
    with pytest.raises(ValueError):
        fn(2)


def test_preimage_golden(litmus):
    sig = litmus.signature
    after = frozenset((state_of(sig, "Blue"), state_of(sig, "Red", "Acid")))
    assert preimage(after, ("dip",), litmus.ts) == frozenset(
        (
            state_of(sig),
            state_of(sig, "Blue"),
            state_of(sig, "Acid"),
            state_of(sig, "Red", "Acid"),
        )
    )


def test_preimage_empty_trajectory(litmus):
    alpha = frozenset((3, 5))
    assert preimage(alpha, (), litmus.ts) == alpha


def test_preimage_iterates(litmus):
    sig = litmus.signature
    blue = frozenset((state_of(sig, "Blue"),))
    assert preimage(blue, ("dip", "dip"), litmus.ts) == frozenset(
        (state_of(sig), state_of(sig, "Blue"))
    )


def test_preimage_requires_deterministic(tiny_sig):
    nondet = complete_transitions(tiny_sig, [(0, "a", 1), (0, "a", 2)])
    with pytest.raises(ValueError):
        preimage(frozenset((1,)), ("a",), nondet)


_NONDETERMINISTIC = "^this operation requires a deterministic transition system$"


def test_every_entry_rejects_nondeterminism_with_one_message(tiny_sig):
    nondet = complete_transitions(tiny_sig, [(0, "a", 1), (0, "a", 2)])
    one, view = frozenset((1,)), WorldView(("a",), (frozenset((1,)),))
    calls = [
        lambda: evolve(one, view, nondet),
        lambda: evolve_skeptical(one, view, nondet),
        lambda: consistent(view, nondet),
        lambda: repairs(view, nondet),
        lambda: preimage(one, ("a",), nondet),
        lambda: preimage(one, (), nondet),
        lambda: final_state_shortcut(one, ("a",), one, nondet),
        lambda: shift_ranking(dalal_ranking(one, tiny_sig), "a", nondet),
        lambda: combined_change(one, "a", one, nondet),
        # The determinism check comes before the other input checks.
        lambda: evolve(frozenset(), view, nondet),
        lambda: final_state_shortcut(frozenset(), ("a",), one, nondet),
        lambda: combined_change(frozenset(), "a", one, nondet),
        lambda: preimage(one, ("zz",), nondet),
        lambda: shift_ranking(dalal_ranking(one, tiny_sig), "zz", nondet),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=_NONDETERMINISTIC):
            call()


def test_consistent_litmus(litmus):
    sig = litmus.signature
    view = WorldView(("dip",), (_red_states(sig),))
    assert consistent(view, litmus.ts)
    assert not consistent(WorldView(("dip",), (frozenset(),)), litmus.ts)


def test_consistent_detects_conflict(conflict_view, litmus):
    assert not consistent(conflict_view, litmus.ts)


def test_evolve_litmus_golden(litmus):
    """Dip the paper, observe red: only the acid world survives."""
    sig = litmus.signature
    kappa = frozenset((state_of(sig), state_of(sig, "Acid")))
    view = WorldView(("dip",), (_red_states(sig),))
    res = evolve(kappa, view, litmus.ts)
    assert isinstance(res, EvolutionResult)
    assert res.was_consistent
    assert res.repaired_views == (view.observations,)
    assert res.trajectories == (
        (frozenset((state_of(sig, "Acid"),)), frozenset((state_of(sig, "Red", "Acid"),))),
    )


def test_evolve_rejects_empty_belief(litmus):
    view = WorldView(("dip",), (universe(litmus.signature),))
    for entry in (evolve, evolve_skeptical):
        with pytest.raises(ValueError, match="^cannot evolve an empty belief state$"):
            entry(frozenset(), view, litmus.ts)


def test_evolve_repairs_conflict_by_recency(conflict_view, litmus):
    sig = litmus.signature
    kappa = frozenset((state_of(sig), state_of(sig, "Acid")))
    res = evolve(kappa, conflict_view, litmus.ts)
    assert not res.was_consistent
    # the later (more reliable) observation is retained
    assert res.repaired_views == (
        (universe(sig), universe(sig) - _acid_states(sig)),
    )
    zero = frozenset((state_of(sig),))
    assert res.trajectories == ((zero, zero, zero),)


def test_evolve_constant_reliability_keeps_both(conflict_view, litmus):
    sig = litmus.signature
    kappa = frozenset((state_of(sig), state_of(sig, "Acid")))
    res = evolve(kappa, conflict_view, litmus.ts, r=constant)
    assert not res.was_consistent
    assert len(res.trajectories) == 2
    finals = {t[-1] for t in res.trajectories}
    assert finals == {
        frozenset((state_of(sig),)),
        frozenset((state_of(sig, "Acid"),)),
    }


def test_evolve_fixed_weights_can_prefer_earlier(conflict_view, litmus):
    sig = litmus.signature
    kappa = frozenset((state_of(sig), state_of(sig, "Acid")))
    res = evolve(kappa, conflict_view, litmus.ts, r=fixed_weights((0, 5)))
    assert res.repaired_views == ((_acid_states(sig), universe(sig)),)
    acid = frozenset((state_of(sig, "Acid"),))
    assert res.trajectories == ((acid, acid, acid),)


def test_evolve_skeptical_merges_repairs(conflict_view, litmus):
    sig = litmus.signature
    kappa = frozenset((state_of(sig), state_of(sig, "Acid")))
    merged = evolve_skeptical(kappa, conflict_view, litmus.ts, r=constant)
    both = frozenset((state_of(sig), state_of(sig, "Acid")))
    assert merged == (both, both, both)


def test_minimal_repair_candidates_consistent_view(litmus):
    sig = litmus.signature
    view = WorldView(("dip",), (_red_states(sig),))
    assert minimal_repair_candidates(view, litmus.ts) == (view.observations,)


def test_minimal_repair_candidates_conflict(conflict_view, litmus):
    sig = litmus.signature
    full = universe(sig)
    acid = _acid_states(sig)
    out = minimal_repair_candidates(conflict_view, litmus.ts)
    assert out == ((full, full - acid), (acid, full))


def test_minimal_repair_candidates_empty_observation(litmus):
    sig = litmus.signature
    view = WorldView(("noop",), (frozenset(),))
    assert minimal_repair_candidates(view, litmus.ts) == ((universe(sig),),)


def _residue_classes(obs, k, full, order):
    """The weakenings keeping the positions congruent to j mod ``k``, for
    each j of ``order``."""
    return tuple(
        tuple(o if i % k == j else full for i, o in enumerate(obs)) for j in order
    )


def test_repair_search_past_twenty(tiny_sig):
    """Tied observations cycling over the four states: one candidate per
    state, at any length."""
    ts = complete_transitions(tiny_sig, ())
    full = universe(tiny_sig)
    for n in (21, 33):
        obs = tuple(frozenset((i % 4,)) for i in range(n))
        view = WorldView(("noop",) * n, obs)
        # Sorted by the first position that differs: j = 0 keeps {0} there,
        # the others discard it.
        expected = _residue_classes(obs, 4, full, (0, 3, 2, 1))
        assert minimal_repair_candidates(view, ts) == expected
        assert repairs(view, ts, constant) == expected


def test_repair_search_at_twenty(tiny_sig):
    """Twenty tied observations cycling over the four states: one candidate per state."""
    ts = complete_transitions(tiny_sig, ())
    n = 20
    obs = tuple(frozenset((i % 4,)) for i in range(n))
    view = WorldView(("noop",) * n, obs)
    expected = _residue_classes(obs, 4, universe(tiny_sig), (0, 3, 2, 1))
    assert minimal_repair_candidates(view, ts) == expected
    assert repairs(view, ts, constant) == expected


def test_repairs_recency_has_no_cap(tiny_sig):
    """Injective orders repair greedily at any length."""
    ts = complete_transitions(tiny_sig, ())
    n = 40
    obs = tuple(frozenset((i % 2,)) for i in range(n))
    view = WorldView(("noop",) * n, obs)
    full = universe(tiny_sig)
    # The last observation is the most reliable; every other one contradicts it.
    expected = tuple(o if i % 2 else full for i, o in enumerate(obs))
    assert repairs(view, ts) == (expected,)
    kappa = frozenset((0, 1))
    res = evolve(kappa, view, ts)
    assert res.repaired_views == (expected,)
    assert res.trajectories == ((frozenset((1,)),) * (n + 1),)


def test_repairs_constant_has_no_cap(tiny_sig):
    """Twenty-one alternating tied observations: keep the even positions or
    the odd ones, and evolve once for each."""
    ts = complete_transitions(tiny_sig, ())
    n = 21
    obs = tuple(frozenset((i % 2,)) for i in range(n))
    view = WorldView(("noop",) * n, obs)
    expected = _residue_classes(obs, 2, universe(tiny_sig), (0, 1))
    assert repairs(view, ts, constant) == expected
    res = evolve(frozenset((0, 1)), view, ts, r=constant)
    assert res.repaired_views == expected
    assert res.trajectories == tuple((frozenset((j,)),) * (n + 1) for j in (0, 1))


def test_repairs_tied_weights_past_twenty(tiny_sig):
    """Pairs of positions tied at one level each, 24 and 30 positions long.

    Position 1 allows both states of the first pair, so the most reliable
    level keeps both, and every later level keeps its even position.
    ``constant`` cannot tell that set from keeping the odd positions.
    """
    ts = complete_transitions(tiny_sig, ())
    full = universe(tiny_sig)
    for n in (24, 30):
        obs = list(frozenset((i % 2,)) for i in range(n))
        obs[1] = frozenset((0, 1))
        obs = tuple(obs)
        view = WorldView(("noop",) * n, obs)
        evens = tuple(o if i % 2 == 0 or i == 1 else full for i, o in enumerate(obs))
        odds = tuple(o if i % 2 else full for i, o in enumerate(obs))
        assert repairs(view, ts, fixed_weights(i // 2 for i in range(n))) == (evens,)
        assert repairs(view, ts, constant) == (evens, odds)


_ALTERNATING = tuple(frozenset((i % 2,)) for i in range(4))
# One non-trivial observation, the empty one, among three trivial ones.
_LONE = (frozenset(),) + (frozenset(range(4)),) * 3


@pytest.mark.parametrize(
    "r, obs, repaired, calls",
    [
        (constant, _ALTERNATING, 2, 1),
        (recency, _ALTERNATING, 1, 0),
        (fixed_weights((0, 0, 1, 1)), _ALTERNATING, 2, 0),
        (constant, _LONE, 1, 0),
    ],
    ids=["constant", "recency", "weights", "constant-lone"],
)
def test_repairs_delegates_to_candidates_only_for_one_level(
    tiny_sig, monkeypatch, r, obs, repaired, calls
):
    """``repairs`` calls ``minimal_repair_candidates`` once under a single
    tied level of at least two observations, and never under distinct or
    several levels, nor for a lone observation."""
    seen = []
    real = evolution.minimal_repair_candidates

    def spy(view, ts):
        seen.append(view)
        return real(view, ts)

    monkeypatch.setattr(evolution, "minimal_repair_candidates", spy)
    ts = complete_transitions(tiny_sig, ())
    view = WorldView(("noop",) * 4, obs)
    assert len(evolve(frozenset((0, 1)), view, ts, r=r).repaired_views) == repaired
    assert len(seen) == calls


def test_repairs_recency_unique(conflict_view, litmus):
    sig = litmus.signature
    out = repairs(conflict_view, litmus.ts)
    assert out == ((universe(sig), universe(sig) - _acid_states(sig)),)


def test_repairs_weight_count_mismatch(conflict_view, litmus):
    with pytest.raises(ValueError):
        repairs(conflict_view, litmus.ts, fixed_weights((1,)))


def test_padded_view_shapes(litmus):
    sig = litmus.signature
    alpha = frozenset((1, 2))
    bare = padded_view((), alpha, sig)
    assert bare.actions == ("noop",)
    assert bare.observations == (alpha,)
    two = padded_view(("dip", "dip"), alpha, sig)
    assert two.actions == ("dip", "dip")
    assert two.observations == (universe(sig), alpha)


def test_final_state_shortcut_litmus_golden(litmus):
    sig = litmus.signature
    kappa = frozenset((state_of(sig), state_of(sig, "Acid")))
    out = final_state_shortcut(kappa, ("dip",), _red_states(sig), litmus.ts)
    assert out == frozenset((state_of(sig, "Red", "Acid"),))


def test_final_state_shortcut_precondition(litmus):
    sig = litmus.signature
    kappa = frozenset((state_of(sig),))
    red = frozenset((state_of(sig, "Red"),))
    # dipping plain water turns the paper blue, never red
    with pytest.raises(ValueError):
        final_state_shortcut(kappa, ("dip",), red, litmus.ts)


_functions = st.tuples(*([st.integers(0, 3)] * 4))
_det_systems = _functions.map(
    lambda f: complete_transitions(_SIG, [(s, "a", f[s]) for s in range(4)])
)
_nonempty_sets = st.sets(st.integers(0, 3), min_size=1).map(frozenset)
_action_lists = st.lists(st.sampled_from(("a", "noop")), max_size=3).map(tuple)


@given(_det_systems, _nonempty_sets, _action_lists, _nonempty_sets)
def test_shortcut_matches_evolution(ts, kappa, actions, alpha):
    progressed = update_seq(kappa, actions, ts)
    assume(alpha & progressed)
    res = evolve(kappa, padded_view(actions, alpha, _SIG), ts)
    assert res.was_consistent
    (trajectory,) = res.trajectories
    assert final_state_shortcut(kappa, actions, alpha, ts) == trajectory[-1]


def test_iterated_revise_overlapping_pair():
    sig = make_signature(("p", "q"))
    out = iterated_revise(frozenset((0,)), (frozenset((1, 3)), frozenset((3,))), sig)
    assert out == frozenset((3,))


def test_iterated_revise_disjoint_pair_keeps_recent():
    sig = make_signature(("p", "q"))
    out = iterated_revise(frozenset((0,)), (frozenset((1,)), frozenset((2,))), sig)
    assert out == frozenset((2,))


def test_iterated_revise_trivial_observation():
    sig = make_signature(("p", "q"))
    kappa = frozenset((0, 3))
    assert iterated_revise(kappa, (universe(sig),), sig) == kappa


def test_iterated_revise_needs_observations():
    sig = make_signature(("p", "q"))
    with pytest.raises(ValueError):
        iterated_revise(frozenset((0,)), (), sig)


def test_iterated_revise_ambiguous_under_constant():
    sig = make_signature(("p", "q"))
    with pytest.raises(ValueError):
        iterated_revise(
            frozenset((0,)),
            (frozenset((1,)), frozenset((2,))),
            sig,
            r=constant,
        )
